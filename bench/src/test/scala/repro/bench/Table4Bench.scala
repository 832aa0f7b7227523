package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetProfiles
import repro.embed.ModelRegistry
import repro.tables.Table4
import TimingGate.above

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

    above("FastText init slowest (n-gram dictionary), FT / WC", initMs("FT"), initMs("WC"))
    above("Word2Vec init above GloVe, WC / GE", initMs("WC"), initMs("GE"))
    def avg(codes: Seq[String]) = codes.map(initMs).sum / codes.size
    val bertAvg  = avg(ModelRegistry.bertModels.map(_.code))
    val sbertAvg = avg(ModelRegistry.sbertModels.map(_.code))
    above("SentenceBERT init above BERT init (larger models), SBERT avg / BERT avg", sbertAvg, bertAvg)
  }

  test("Table 4: transformation time per model and dataset") {
    report.transform.print()
    val total = report.total

    // Paper-shape assertions on the totals across all datasets:
    above("Word2Vec transform far below FastText, FT / WC", total("FT"), total("WC"))
    above("GloVe transform far below FastText, FT / GE", total("FT"), total("GE"))
    above("DistilBERT faster than BERT, BT / DT", total("BT"), total("DT"))
    above("XLNet slowest BERT-family model, XT / BT", total("XT"), total("BT"))
    above("S-MiniLM fastest SBERT, ST / SM", total("ST"), total("SM"))
    above("S-MiniLM fastest SBERT, S5 / SM", total("S5"), total("SM"))
    above("S-GTR-T5 is the heaviest SBERT, S5 / SM", total("S5"), total("SM"))
  }
}
