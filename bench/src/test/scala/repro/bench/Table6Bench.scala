package repro.bench

import repro.SparkSpec
import repro.embed.ModelRegistry
import repro.tables.Table6

/** Table 6. Paper shape: XLNet slowest everywhere; S-MiniLM fastest;
  * S-DistilRoBERTa and DistilBERT ≈ half of RoBERTa; dynamic models' F1
  * above the static models'.
  */
class Table6Bench extends SparkSpec {

  test("Table 6: supervised matching times and F1") {
    val report = Table6.run(spark)
    report.print()
    val models = ModelRegistry.supervisedModels
    val tTot  = report.trainSecs
    val f1Tot = report.f1

    // Time shape (totals across datasets)
    assert(tTot("XT") > tTot("BT"), "XLNet slowest")
    assert(tTot("SM") < tTot("ST"), "S-MiniLM fastest SBERT")
    assert(tTot("DT") < tTot("BT"), "DistilBERT below BERT")
    assert(tTot("SA") < tTot("ST"), "S-DistilRoBERTa below S-MPNet")

    // Effectiveness shape (Figure 11): dynamics above statics on average
    val dynAvg = models.filterNot(_.isStatic).map(m => f1Tot(m.code) / 5).sum / 8
    val geAvg  = f1Tot("GE") / 5
    val ftAvg  = f1Tot("FT") / 5
    assert(dynAvg > geAvg, s"dynamic avg $dynAvg vs GloVe $geAvg")
    assert(dynAvg > ftAvg, s"dynamic avg $dynAvg vs FastText $ftAvg")
    assert(ftAvg > geAvg, "FastText above GloVe (char-level robustness)")
  }
}
