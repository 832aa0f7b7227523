package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetProfiles
import repro.embed.ModelRegistry
import repro.tables.Table4

/** Table 4, at REPRO_SCALE. Paper shape to reproduce: FastText has by far
  * the costliest Init (n-gram dictionary), Word2Vec second;
  * Word2Vec/GloVe transform fastest by an order of magnitude; DistilBERT
  * fastest BERT, XLNet slowest BERT; S-MiniLM fastest SentenceBERT,
  * S-GTR-T5 slowest overall.
  */
class Table4Bench extends AnyFunSuite {

  private lazy val report = Table4.run(DatasetProfiles.benchScale)

  test("Table 4: initialization time per model") {
    report.init.print()
    report.fresh.foreach(rt => assert(rt.vocabTable.nonEmpty))
    val initMs = report.initMs

    assert(initMs("FT") > initMs("WC"), "FastText init slowest (n-gram dictionary)")
    assert(initMs("WC") > initMs("GE"), "Word2Vec init above GloVe")
    def avg(codes: Seq[String]) = codes.map(initMs).sum / codes.size
    val bertAvg  = avg(ModelRegistry.bertModels.map(_.code))
    val sbertAvg = avg(ModelRegistry.sbertModels.map(_.code))
    assert(sbertAvg > bertAvg, "SentenceBERT init above BERT init (larger models)")
  }

  test("Table 4: transformation time per model and dataset") {
    report.transform.print()
    val total = report.total

    // Paper-shape assertions on the totals across all datasets:
    assert(total("WC") < total("FT"), "Word2Vec transform far below FastText")
    assert(total("GE") < total("FT"), "GloVe transform far below FastText")
    assert(total("DT") < total("BT"), "DistilBERT faster than BERT")
    assert(total("XT") > total("BT"), "XLNet slowest BERT-family model")
    assert(total("SM") < total("ST") && total("SM") < total("S5"), "S-MiniLM fastest SBERT")
    assert(total("S5") > total("SM"), "S-GTR-T5 is the heaviest SBERT")
  }
}
