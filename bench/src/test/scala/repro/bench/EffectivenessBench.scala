package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetProfiles
import repro.embed.ModelRegistry
import repro.tables.Effectiveness

/** Figures 3/4/8 at REPRO_SCALE: the paper's family-level ordering. Not a
  * numbered table, but these numbers carry the paper's headline claims.
  */
class EffectivenessBench extends AnyFunSuite {

  test("Figures 3/4/8: blocking recall and UMC matching per model and dataset") {
    val report = Effectiveness.run(DatasetProfiles.benchScale)
    report.print()
    val rec = report.rec
    val f1  = report.f1

    // Family ordering (the paper's central result)
    def avg(codes: Seq[String], m: Map[String, Double]) = codes.map(m).sum / codes.size
    val sbert  = ModelRegistry.sbertModels.map(_.code)
    val static = ModelRegistry.staticModels.map(_.code)
    val bert   = ModelRegistry.bertModels.map(_.code)
    assert(avg(sbert, rec) > avg(static, rec), "SBERT > static on blocking recall")
    assert(avg(static, rec) > avg(bert, rec), "static > BERT on blocking recall")
    assert(avg(sbert, f1) > avg(static, f1), "SBERT > static on UMC F1")
    assert(avg(static, f1) > avg(bert, f1), "static > BERT on UMC F1")
    assert(rec("S5") == rec.values.max || f1("S5") == f1.values.max ||
           rec("S5") >= rec.values.max - 0.02, "S-GTR-T5 at/near the top")
    assert(rec("DT") == bert.map(rec).max, "DistilBERT best BERT model")
    assert(Seq("AT", "XT").forall(c => rec(c) <= bert.map(rec).min + 1e-9 ||
           rec(c) < 0.35), "AlBERT/XLNet collapse")
  }
}
