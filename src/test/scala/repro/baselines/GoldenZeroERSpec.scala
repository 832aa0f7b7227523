package repro.baselines

import scala.io.Source
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pipeline
import repro.data.DatasetProfiles

/** Golden ZeroER quality: precision, recall and F1 of `ZeroER.run` on a
  * few tiny datasets, compared exactly (as `Double.toString`) against a
  * checked-in snapshot.
  *
  * The overlap blocking, the features and the EM are pure functions of
  * their inputs, and the budget is set high enough never to fire, so the
  * numbers do not depend on the core count; any difference is silent
  * drift.
  */
class GoldenZeroERSpec extends AnyFunSuite {

  test("ZeroER precision, recall and F1 match the checked-in snapshot exactly") {
    val src = Source.fromResource("golden/zeroer.tsv")
    val expected = try src.getLines().filterNot(_.startsWith("#")).toVector finally src.close()
    val actual = GoldenZeroERSpec.lines.filterNot(_.startsWith("#"))
    val diff = expected.zipAll(actual, "<missing>", "<missing>").filter { case (e, a) => e != a }
    assert(diff.isEmpty,
      diff.map { case (e, a) => s"expected $e\n  actual $a" }.mkString(s"${diff.size} rows differ:\n", "\n", ""))
  }
}

object GoldenZeroERSpec {
  /** (dataset, scale) of each snapshot row. */
  val Cases = Seq(("D4", 0.05), ("D1", 0.1), ("D2", 0.05), ("D5", 0.02), ("D10", 0.01))

  /** A header line, then one `ds\tscale\tP\tR\tF1` line per case. */
  def lines: Vector[String] =
    "# ds\tscale\tP\tR\tF1   (ZeroER.run, budget 3600 s, Double.toString)" +: Cases.toVector.map { case (ds, scale) =>
      val src = Pipeline.sources(DatasetProfiles(ds).scaled(scale))
      val r = ZeroER.run(src.e1, src.e2, src.gt, budgetSecs = 3600).get
      Seq(ds, scale, r.precision, r.recall, r.f1).mkString("\t")
    }
}
