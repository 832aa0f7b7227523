package repro.tables

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pipeline
import repro.data.{DatasetProfiles, SupervisedSynth}
import repro.embed.ModelRegistry

/** Every table producer at a tiny scale: one header plus one row per
  * dataset (or model), and the cross-table identities of the one path.
  */
class TablesSpec extends AnyFunSuite {

  private val Scale = GoldenEffectivenessSpec.Scale
  private val datasets = DatasetProfiles.all.map(_.name)

  test("Table 1 has a header and one row per model") {
    assert(Table1.run().table.rows.map(_.head) == "Model" +: ModelRegistry.all.map(_.name))
  }

  test("Table 3 has a header and one row per DSM with the paper's totals and duplicates") {
    val r = Table3.run()
    assert(r.table.rows.map(_.head) == "ds" +: SupervisedSynth.all.map(_.name))
    r.counts.foreach { case (p, total, _, dups) =>
      assert(total == Table3.paper(p.name)._1 && dups == Table3.paper(p.name)._3, p.name)
    }
  }

  test("Effectiveness has a header and one row per (dataset, model)") {
    val r = GoldenEffectivenessSpec.report
    assert(r.matrix.rows.head.take(2) == Seq("ds", "model"))
    assert(r.matrix.rows.tail.map(_.take(2)) ==
      (for (d <- datasets; m <- ModelRegistry.all) yield Seq(d, m.code)))
    assert(r.averages.rows.head == "model" +: ModelRegistry.all.map(_.code))
  }

  test("Table 4 has the Init row and one transform row per dataset plus the total") {
    val r = Table4.run(Scale)
    assert(r.init.rows.head == ModelRegistry.all.map(_.code))
    assert(r.transform.rows.map(_.head) == ("ds" +: datasets) :+ "TOTAL")
    assert(r.total.keySet == ModelRegistry.all.map(_.code).toSet)
  }

  test("Table 5(a) has one row per dataset and its S5 rec@10 is Effectiveness's") {
    val r = Table5a.run(Scale)
    assert(r.table.rows.map(_.head) == "ds" +: datasets)
    val eff = GoldenEffectivenessSpec.report.cells.filter(_.model == "S5").map(c => c.dataset -> c.rec10).toMap
    datasets.foreach(ds => assert(r.s5Rec10(ds) == eff(ds), ds))
  }

  test("Table 5(b) has one row per dataset and its S5 F1 is the one path's UMC at delta 0.5") {
    val r = Table5b.run(Scale)
    assert(r.table.rows.map(_.head) == "ds" +: datasets)
    DatasetProfiles.all.foreach { p =>
      val f1 = Pipeline.run(Pipeline.sources(p.scaled(Scale)), "S5", 10).umcAt(0.5).f1
      assert(r.s5F1(p.name) == f1, p.name)
    }
  }
}
