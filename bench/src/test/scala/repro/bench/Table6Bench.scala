package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SupervisedSynth
import repro.embed.ModelRegistry
import repro.tables.Table6
import TimingGate.above

/** Table 6. Paper shape: XLNet slowest everywhere; S-MiniLM fastest;
  * S-DistilRoBERTa and DistilBERT ≈ half of RoBERTa; dynamic models' F1
  * above the static models'.
  */
class Table6Bench extends AnyFunSuite {

  test("Table 6: supervised matching times and F1") {
    val report = Table6.run()
    report.print()
    val models = ModelRegistry.supervisedModels
    val tTot  = report.trainSecs
    val f1Tot = report.f1

    // Time shape (totals across datasets)
    above("XLNet slowest, XT / BT", tTot("XT"), tTot("BT"))
    above("S-MiniLM fastest SBERT, ST / SM", tTot("ST"), tTot("SM"))
    above("DistilBERT below BERT, BT / DT", tTot("BT"), tTot("DT"))
    above("S-DistilRoBERTa below S-MPNet, ST / SA", tTot("ST"), tTot("SA"))

    // Effectiveness shape (Figure 11): dynamics above statics on average
    val dsms    = SupervisedSynth.all.size
    val dynamic = models.filterNot(_.isStatic)
    val dynAvg = dynamic.map(m => f1Tot(m.code) / dsms).sum / dynamic.size
    val geAvg  = f1Tot("GE") / dsms
    val ftAvg  = f1Tot("FT") / dsms
    assert(dynAvg > geAvg, s"dynamic avg $dynAvg vs GloVe $geAvg")
    assert(dynAvg > ftAvg, s"dynamic avg $dynAvg vs FastText $ftAvg")
    assert(ftAvg > geAvg, "FastText above GloVe (char-level robustness)")
  }
}
