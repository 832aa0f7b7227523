package repro.baselines

import scala.io.Source
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pipeline
import repro.data.DatasetProfiles

/** Golden DeepBlocker candidates: the (query id, index id) pairs that
  * `DeepBlocker.block` keeps from the smaller side at the default seed,
  * for D4 at scale 0.05 with k = 5 and D1 at scale 0.2 with k = 2,
  * compared exactly against a checked-in snapshot.
  *
  * FastText vectors, the auto-encoder, the self-supervised classifier,
  * the exact k-NN and the re-scoring are pure functions of their seeds
  * and inputs, so any difference is silent drift.
  */
class GoldenDeepBlockerSpec extends AnyFunSuite {

  test("DeepBlocker candidates match the checked-in snapshot exactly") {
    val src = Source.fromResource("golden/deepblocker.tsv")
    val expected = try src.getLines().filterNot(_.startsWith("#")).toVector finally src.close()
    val actual = GoldenDeepBlockerSpec.lines.filterNot(_.startsWith("#"))
    val diff = expected.zipAll(actual, "<missing>", "<missing>").filter { case (e, a) => e != a }
    assert(diff.isEmpty,
      diff.take(20).map { case (e, a) => s"expected $e, actual $a" }.mkString(s"${diff.size} lines differ:\n", "\n", ""))
  }
}

object GoldenDeepBlockerSpec {
  /** (dataset, scale, k) of each snapshot section. */
  val Cases = Seq(("D4", 0.05, 5), ("D1", 0.2, 2))

  /** Each case's comment line, then its pairs as `id1\tid2`, sorted. */
  def lines: Vector[String] = Cases.toVector.flatMap { case (ds, scale, k) =>
    val src = Pipeline.sources(DatasetProfiles(ds).scaled(scale))
    val (q, i) = src.querySides(src.e1, src.e2)
    val pairs = DeepBlocker.block(q, i, k, tag = s"golden-$ds").candidates.sorted
    s"# $ds x$scale k=$k: (query id, index id), the query side is the smaller source" +:
      pairs.map { case (a, b) => s"$a\t$b" }
  }
}
