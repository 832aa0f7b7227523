package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetProfiles
import repro.embed.ModelRegistry

/** Integration checks of the paper's headline findings (Figures 3, 4, 8):
  * on unsupervised tasks SentenceBERT > static > BERT-family, DistilBERT
  * is the best BERT model, and AlBERT/XLNet collapse.
  */
class FamilyOrderingSpec extends AnyFunSuite {

  private lazy val runs: Map[String, Pipeline.Run] = {
    val src = Pipeline.sources(DatasetProfiles("D10").scaled(0.03))
    ModelRegistry.all.map(m => m.code -> Pipeline.run(src, m.code, 10)).toMap
  }

  private def rec10(code: String) = runs(code).recallAt(10)
  private def f1(code: String)    = runs(code).umcBest().f1

  test("blocking: every SBERT model beats every BERT model") {
    for (s <- ModelRegistry.sbertModels; b <- ModelRegistry.bertModels)
      assert(rec10(s.code) > rec10(b.code), s"${s.code} vs ${b.code}")
  }

  test("blocking: SBERT family mean beats static family mean") {
    val sb = ModelRegistry.sbertModels.map(m => rec10(m.code)).sum / 4
    val st = ModelRegistry.staticModels.map(m => rec10(m.code)).sum / 3
    assert(sb > st, s"sbert=$sb static=$st")
  }

  test("blocking: static family mean beats BERT family mean") {
    val st = ModelRegistry.staticModels.map(m => rec10(m.code)).sum / 3
    val bt = ModelRegistry.bertModels.map(m => rec10(m.code)).sum / 5
    assert(st > bt, s"static=$st bert=$bt")
  }

  test("blocking: DistilBERT is the best BERT model") {
    ModelRegistry.bertModels.filter(_.code != "DT")
      .foreach(m => assert(rec10("DT") > rec10(m.code), m.code))
  }

  test("blocking: AlBERT and XLNet collapse (recall < 0.3)") {
    assert(rec10("AT") < 0.3, s"AT ${rec10("AT")}")
    assert(rec10("XT") < 0.3, s"XT ${rec10("XT")}")
  }

  test("matching: S-GTR-T5 is at or near the top") {
    val best = ModelRegistry.all.map(m => f1(m.code)).max
    assert(f1("S5") >= best * 0.93, s"S5=${f1("S5")} best=$best")
  }

  test("matching: every SBERT model beats every BERT model on F1") {
    for (s <- ModelRegistry.sbertModels; b <- ModelRegistry.bertModels)
      assert(f1(s.code) > f1(b.code), s"${s.code} vs ${b.code}")
  }

  test("matching: BERT thresholds are lower than SBERT thresholds (poor discriminativeness)") {
    val dBert  = ModelRegistry.bertModels.map(m => runs(m.code).umcBest().delta)
    val dSbert = ModelRegistry.sbertModels.map(m => runs(m.code).umcBest().delta)
    assert(dBert.max <= dSbert.min, s"bert=$dBert sbert=$dSbert")
  }

  test("blocking recall at k=1 never exceeds k=10") {
    ModelRegistry.all.foreach(m =>
      assert(runs(m.code).recallAt(1) <= runs(m.code).recallAt(10), m.code))
  }
}
