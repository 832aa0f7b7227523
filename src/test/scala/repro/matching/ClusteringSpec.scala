package repro.matching

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class ClusteringSpec extends AnyFunSuite with PropSupport {

  private val pairs = Seq(
    (1L, 10L, 0.9), (1L, 11L, 0.8), (2L, 10L, 0.85), (2L, 11L, 0.7), (3L, 12L, 0.4))

  // ---- Exact Clustering ----

  test("exact: mutual best matches only") {
    val m = ExactClustering.cluster(pairs, 0.0)
    // 1's best is 10, 10's best is 1 → match; 2's best is 10 (taken) → no mutual
    assert(m.contains((1L, 10L)))
    assert(!m.exists(_._1 == 2L))
    assert(m.contains((3L, 12L)))
  }

  test("exact: threshold filters") {
    val m = ExactClustering.cluster(pairs, 0.5)
    assert(!m.contains((3L, 12L)))
  }

  test("exact: empty input") {
    assert(ExactClustering.cluster(Nil, 0.0).isEmpty)
  }

  test("exact: at most one match per entity") {
    val gen = Gen.listOfN(80, for {
      a <- Gen.choose(0L, 10L); b <- Gen.choose(50L, 60L); s <- Gen.choose(0.0, 1.0)
    } yield (a, b, s))
    checkProp(Prop.forAll(gen) { ps =>
      val m = ExactClustering.cluster(ps, 0.0)
      m.map(_._1).distinct.size == m.size && m.map(_._2).distinct.size == m.size
    })
  }

  test("exact: order-insensitive") {
    assert(ExactClustering.cluster(pairs.reverse, 0.0) == ExactClustering.cluster(pairs, 0.0))
  }

  // ---- Kiraly Clustering ----

  test("kiraly: stable marriage on the toy instance") {
    val m = KiralyClustering.cluster(pairs, 0.0).toSet
    assert(m == Set((1L, 10L), (2L, 11L), (3L, 12L)))
  }

  test("kiraly: threshold filters") {
    val m = KiralyClustering.cluster(pairs, 0.5).toSet
    assert(m == Set((1L, 10L), (2L, 11L)))
  }

  test("kiraly: trades up to better proposals") {
    // 2 proposes to 10 first (0.85); then 1 proposes (0.9) and displaces 2
    val ps = Seq((2L, 10L, 0.85), (1L, 10L, 0.9), (2L, 11L, 0.5))
    val m = KiralyClustering.cluster(ps, 0.0).toSet
    assert(m == Set((1L, 10L), (2L, 11L)))
  }

  test("kiraly: no blocking pair (stability)") {
    val gen = Gen.listOfN(60, for {
      a <- Gen.choose(0L, 8L); b <- Gen.choose(50L, 58L); s <- Gen.choose(0.0, 1.0)
    } yield (a, b, s))
    checkProp(Prop.forAll(gen) { ps0 =>
      val ps = ps0.groupBy(p => (p._1, p._2)).map(_._2.head).toSeq // dedupe edges
      val m = KiralyClustering.cluster(ps, 0.0)
      val simOf = ps.map(p => (p._1, p._2) -> p._3).toMap
      val matchOfL = m.toMap
      val matchOfR = m.map(_.swap).toMap
      // no pair (a,b) where both strictly prefer each other over their match
      ps.forall { case (a, b, s) =>
        val aCur = matchOfL.get(a).flatMap(bb => simOf.get((a, bb))).getOrElse(-1.0)
        val bCur = matchOfR.get(b).flatMap(aa => simOf.get((aa, b))).getOrElse(-1.0)
        !(s > aCur && s > bCur)
      }
    }, "stability")
  }

  test("kiraly: empty input") {
    assert(KiralyClustering.cluster(Nil, 0.0).isEmpty)
  }

  test("kiraly and UMC agree on unambiguous instances") {
    val easy = Seq((1L, 10L, 0.9), (2L, 11L, 0.8), (3L, 12L, 0.7))
    assert(KiralyClustering.cluster(easy, 0.0).toSet ==
      UniqueMappingClustering.cluster(easy, 0.0).map(m => (m.id1, m.id2)).toSet)
  }

  // ---- MatchMetrics ----

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
