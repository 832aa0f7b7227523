package repro.matching

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class MatchMetricsSpec extends AnyFunSuite with PropSupport {

  test("metrics: perfect prediction") {
    val gt = Set((1L, 2L), (3L, 4L))
    assert(MatchMetrics.prf(gt, gt) == ((1.0, 1.0, 1.0)))
  }

  test("metrics: empty prediction has zero recall and F1") {
    val (p, r, f1) = MatchMetrics.prf(Set.empty, Set((1L, 2L)))
    assert(p == 0.0 && r == 0.0 && f1 == 0.0)
  }

  test("metrics: half precision, full recall") {
    val (p, r, f1) = MatchMetrics.prf(Set((1L, 2L), (9L, 9L)), Set((1L, 2L)))
    assert(p == 0.5 && r == 1.0 && math.abs(f1 - 2.0 / 3) < 1e-9)
  }

  test("metrics: F1 between 0 and 1 always") {
    val gen = Gen.listOf(Gen.zip(Gen.choose(0L, 6L), Gen.choose(0L, 6L)))
    checkProp(Prop.forAll(gen, gen) { (a, b) =>
      val (p, r, f1) = MatchMetrics.prf(a.toSet, b.toSet)
      p >= 0 && p <= 1 && r >= 0 && r <= 1 && f1 >= 0 && f1 <= 1
    })
  }
}
