package repro.matching.supervised

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SupervisedSynth
import repro.embed.ModelRegistry

class SupervisedMatcherSpec extends AnyFunSuite {

  // DSM2 rendered once. One untimed run first, so that neither timed
  // result alone pays the JIT's warm-up of the supervised path.
  private lazy val dsm2 = SupervisedSynth.pairs(SupervisedSynth.DSM2)
  private lazy val warmUp: Unit = SupervisedMatcher.run(dsm2, ModelRegistry("RA"))
  private lazy val resRA = { warmUp; SupervisedMatcher.run(dsm2, ModelRegistry("RA")) }
  private lazy val resXT = { warmUp; SupervisedMatcher.run(dsm2, ModelRegistry("XT")) }

  test("fine-tuned RoBERTa reaches useful F1 on DSM2") {
    assert(resRA.f1 > 0.6, s"F1 ${resRA.f1}")
  }

  test("fine-tuning rescues a model that collapses unsupervised (XLNet)") {
    assert(resXT.f1 > 0.55, s"XLNet supervised F1 ${resXT.f1}")
  }

  test("times are measured and training dominates testing") {
    assert(resRA.trainSecs > 0 && resRA.testSecs >= 0)
    assert(resRA.trainSecs > resRA.testSecs)
  }

  test("XLNet is slower to fine-tune than RoBERTa (Table 6 shape)") {
    assert(resXT.trainSecs > resRA.trainSecs,
      s"XT=${resXT.trainSecs} RA=${resRA.trainSecs}")
  }

  test("simulatedEncoderWork runs the requested units and mutates the buffer") {
    val buf = Array.fill(64)(0.5f)
    val before = buf.toSeq
    SupervisedMatcher.simulatedEncoderWork(buf, 1000)
    assert(buf.toSeq != before)
  }

  test("encoder unit costs follow the paper's time ordering") {
    def u(c: String) = SupervisedMatcher.encoderUnits(ModelRegistry(c))
    assert(u("XT") > u("BT"), "XLNet slowest")
    assert(u("SM") < u("SA") && u("SA") < u("BT"), "MiniLM fastest dynamic")
    assert(u("DT") < u("BT"), "DistilBERT cheaper than BERT")
    assert(u("FT") == u("GE"), "static models share the DeepMatcher path")
    assert(ModelRegistry.all.map(m => m.code -> SupervisedMatcher.encoderUnits(m)) == Seq(
      "WC" -> 17000L, "FT" -> 17000L, "GE" -> 17000L, "BT" -> 36864L, "AT" -> 33792L, "RA" -> 30720L,
      "DT" -> 18432L, "XT" -> 78336L, "ST" -> 33792L, "S5" -> 73728L, "SA" -> 18432L, "SM" -> 9216L))
  }

  test("result carries model and dataset identifiers") {
    assert(resRA.modelCode == "RA" && resRA.dataset == "DSM2")
    assert(resRA.chosenEpoch >= 0)
  }
}
