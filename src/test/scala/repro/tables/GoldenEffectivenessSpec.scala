package repro.tables

import scala.io.Source
import org.scalatest.funsuite.AnyFunSuite

/** Golden effectiveness numbers: recall@{1,5,10}, the best UMC δ and its
  * F1 for every (dataset, model) pair at a small fixed scale, compared
  * exactly (as `Double.toString`) against a checked-in snapshot.
  *
  * Every generator, vectorizer, the exact k-NN and UMC are pure functions
  * of their seeds and inputs, so these numbers depend neither on the core
  * count nor on partitioning; any difference is silent drift.
  */
class GoldenEffectivenessSpec extends AnyFunSuite {

  test("effectiveness numbers match the checked-in snapshot exactly") {
    val src = Source.fromResource("golden/effectiveness.tsv")
    val expected = try src.getLines().filterNot(_.startsWith("#")).toVector finally src.close()
    val actual = GoldenEffectivenessSpec.report.cells.map(c =>
      Seq(c.dataset, c.model, c.rec1, c.rec5, c.rec10, c.best.delta, c.best.f1).mkString("\t")).toVector
    val diff = expected.zipAll(actual, "<missing>", "<missing>").filter { case (e, a) => e != a }
    assert(diff.isEmpty,
      diff.map { case (e, a) => s"expected $e\n  actual $a" }.mkString(s"${diff.size} rows differ:\n", "\n", ""))
  }
}

object GoldenEffectivenessSpec {
  val Scale = 0.01

  /** The Effectiveness report at [[Scale]], computed once per test run. */
  lazy val report: Effectiveness.Result = Effectiveness.run(Scale)
}
