package repro.matching

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import repro.util.Det
import UniqueMappingClustering.{Match => M}

class UMCSpec extends AnyFunSuite with PropSupport {

  private val pairs = Seq(
    (1L, 10L, 0.9), (1L, 11L, 0.8), (2L, 10L, 0.85), (2L, 11L, 0.7), (3L, 12L, 0.4))

  test("greedy matching picks best pairs first") {
    val m = UniqueMappingClustering.cluster(pairs, 0.0)
    assert(m.map(x => (x.id1, x.id2)) == Vector((1L, 10L), (2L, 11L), (3L, 12L)))
  }

  test("threshold prunes low-similarity matches") {
    val m = UniqueMappingClustering.cluster(pairs, 0.5)
    assert(m.map(x => (x.id1, x.id2)) == Vector((1L, 10L), (2L, 11L)))
  }

  test("each entity is matched at most once (both sides)") {
    val m = UniqueMappingClustering.cluster(pairs, 0.0)
    assert(m.map(_.id1).distinct.size == m.size)
    assert(m.map(_.id2).distinct.size == m.size)
  }

  test("smallSize stops early") {
    val m = UniqueMappingClustering.cluster(pairs, 0.0, smallSize = 1)
    assert(m == Vector(M(1L, 10L, 0.9)))
  }

  test("empty input yields empty output") {
    assert(UniqueMappingClustering.cluster(Nil, 0.0).isEmpty)
  }

  test("sweep equals cluster at delta 0") {
    assert(UniqueMappingClustering.sweep(pairs) == UniqueMappingClustering.cluster(pairs, 0.0))
  }

  test("greedy-prefix property: cluster(delta) == sweep filtered by delta") {
    val gen = Gen.listOfN(60, for {
      a <- Gen.choose(0L, 12L); b <- Gen.choose(100L, 112L); s <- Gen.choose(0.0, 1.0)
    } yield (a, b, s))
    checkProp(Prop.forAll(gen, Gen.choose(0.0, 1.0)) { (ps, d) =>
      val viaSweep = UniqueMappingClustering.sweep(ps).filter(_.sim >= d)
      val direct   = UniqueMappingClustering.cluster(ps, d)
      viaSweep == direct
    }, "prefix property")
  }

  /** Matches with their similarity's bits, so -0.0 and 0.0 differ. */
  private def bits(ms: Vector[M]) = ms.map(m => (m.id1, m.id2, java.lang.Double.doubleToRawLongBits(m.sim)))

  private val ties = Seq(Double.NaN, 0.0, -0.0, 0.25, 0.5, 0.75, 1.0)

  test("sweep and cluster equal the tuple-sorting reference exactly") {
    val sim = Gen.frequency(4 -> Gen.oneOf(ties), 1 -> Gen.choose(-1.0, 1.0))
    val pair = for { a <- Gen.choose(0L, 9L); b <- Gen.choose(100L, 109L); s <- sim } yield (a, b, s)
    val input = for {
      n <- Gen.choose(0, 120); ps <- Gen.listOfN(n, pair); dups <- Gen.choose(0, 12)
    } yield ps ++ ps.take(dups)
    val delta = Gen.oneOf(Gen.oneOf(ties.filterNot(_.isNaN)), Gen.choose(-0.5, 1.0))
    val small = Gen.oneOf(Gen.choose(0L, 10L), Gen.const(Long.MaxValue))
    checkProp(Prop.forAll(input, delta, small) { (ps, d, s) =>
      val (id1, id2, sim) = ps.toArray.unzip3
      bits(UniqueMappingClustering.sweep(ps, s)) == bits(ReferenceUmc.run(ps, 0.0, s)) &&
        bits(UniqueMappingClustering.cluster(ps, d, s)) == bits(ReferenceUmc.run(ps, d, s)) &&
        bits(UniqueMappingClustering.cluster(id1, id2, sim, 0.0, s)) == bits(ReferenceUmc.run(ps, 0.0, s)) &&
        bits(UniqueMappingClustering.cluster(id1, id2, sim, d, s)) == bits(ReferenceUmc.run(ps, d, s))
    }, "reference UMC")
  }

  test("a large tied input equals the reference") {
    val ps = (0 until 5000).map { i =>
      (Det.nextInt(Det.seed(1L, i.toLong), 700).toLong, Det.nextInt(Det.seed(2L, i.toLong), 900).toLong,
        ties(Det.nextInt(Det.seed(3L, i.toLong), ties.length)))
    }
    val (id1, id2, sim) = ps.toArray.unzip3
    assert(bits(UniqueMappingClustering.sweep(ps, 650L)) == bits(ReferenceUmc.run(ps, 0.0, 650L)))
    assert(bits(UniqueMappingClustering.cluster(ps, 0.5)) == bits(ReferenceUmc.run(ps, 0.5, Long.MaxValue)))
    assert(bits(UniqueMappingClustering.cluster(id1, id2, sim, 0.0, 650L)) == bits(ReferenceUmc.run(ps, 0.0, 650L)))
    assert(bits(UniqueMappingClustering.cluster(id1, id2, sim, 0.5, Long.MaxValue)) ==
      bits(ReferenceUmc.run(ps, 0.5, Long.MaxValue)))
  }

  test("NaN similarities are never matched, and 0.0 is processed before -0.0") {
    val m = UniqueMappingClustering.sweep(Seq((1L, 10L, Double.NaN), (2L, 10L, -0.0), (3L, 10L, 0.0), (2L, 11L, 0.1)))
    assert(bits(m) == bits(Vector(M(2L, 11L, 0.1), M(3L, 10L, 0.0))))
  }

  test("deterministic under input permutation") {
    val shuffled = pairs.reverse
    assert(UniqueMappingClustering.cluster(shuffled, 0.0) ==
           UniqueMappingClustering.cluster(pairs, 0.0))
  }

  test("ties broken deterministically by ids") {
    val tied = Seq((1L, 10L, 0.5), (1L, 11L, 0.5), (2L, 10L, 0.5))
    val m = UniqueMappingClustering.cluster(tied, 0.0)
    assert(m.map(x => (x.id1, x.id2)) == Vector((1L, 10L), (2L, 11L)).take(m.size))
  }

  test("bestThreshold maximizes F1 over the grid") {
    val sweep = Vector(M(1, 10, 0.9), M(2, 11, 0.6), M(3, 13, 0.3))
    val gt = Set((1L, 10L), (2L, 11L), (3L, 12L))
    val (d, p, r, f1) = UniqueMappingClustering.bestThreshold(sweep, gt)
    // keeping the first two matches (δ in (0.3, 0.6]) gives P=1, R=2/3
    assert(d > 0.3 && d <= 0.6)
    assert(math.abs(p - 1.0) < 1e-9)
    assert(math.abs(r - 2.0 / 3) < 1e-9)
    assert(f1 > 0.79 && f1 < 0.81)
  }

  test("bestThreshold on empty sweep yields zero F1") {
    val (_, _, _, f1) = UniqueMappingClustering.bestThreshold(Vector.empty, Set((1L, 2L)))
    assert(f1 == 0.0)
  }

  test("matches carry the similarity at which they were accepted") {
    val m = UniqueMappingClustering.sweep(pairs)
    assert(m.head == M(1L, 10L, 0.9))
    assert(m.forall(x => pairs.contains((x.id1, x.id2, x.sim))))
  }
}
