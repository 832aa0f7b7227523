package repro.blocking

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Det

class KnnKernelSpec extends AnyFunSuite {

  /** Non-unit vectors: uniform components times a per-row scale in [0.1, 3). */
  private def vecs(seed: Long, n: Int, dim: Int, idBase: Long): Seq[(Long, Array[Float])] =
    (0 until n).map { i =>
      val s = 0.1f + 2.9f * Det.uniform(Det.seed(seed, i.toLong, 1L)).toFloat
      (idBase + i, Det.uniformVec(Det.seed(seed, i.toLong), dim).map(_ * s))
    }

  /** Kernel output as (nid, dist) lists, one per query. */
  private def run(index: Seq[(Long, Array[Float])], queries: Seq[Array[Float]], k: Int) =
    KnnKernel.search(KnnKernel.Index(index.toArray), queries.toArray, k)

  private def assertOracle(index: Seq[(Long, Array[Float])], queries: Seq[Array[Float]], k: Int,
                           clue: String): Array[KnnKernel.Hits] = {
    val hits = run(index, queries, k)
    queries.zip(hits).zipWithIndex.foreach { case ((q, h), qi) =>
      val want = BruteForceKnn.nearest(q, index, k)
      // the distances must be bit-identical, not close (NaN included)
      def bits(ds: Seq[Double]) = ds.map(java.lang.Double.doubleToLongBits)
      assert(h.nids.toSeq == want.map(_._1) && bits(h.dists.toSeq) == bits(want.map(_._2)), s"$clue, query $qi")
    }
    hits
  }

  private val T = KnnKernel.TileRows

  test("matches the brute-force oracle across dims, tile edges and k") {
    for {
      dim <- Seq(1, 3, 128, 300, 768)
      n <- Seq(1, T - 1, T + 1)
      k <- Seq(1, 10, n, n + 5).distinct
    } {
      val index = vecs(dim * 31L + n, n, dim, idBase = 1000L)
      val queries = vecs(dim * 17L + n + 7, 6, dim, idBase = 0L).map(_._2)
      assertOracle(index, queries, k, s"dim $dim, n $n, k $k")
    }
  }

  test("k at or above the index size returns every row, in (dist, nid) order") {
    val index = vecs(5L, 40, 16, idBase = 0L)
    val hits = assertOracle(index, Seq(Array.fill(16)(0.5f)), 40, "k = n")
    assert(hits.head.nids.toSet == index.map(_._1).toSet)
    assert(run(index, Seq(Array.fill(16)(0.5f)), 1000).head.nids.length == 40)
  }

  test("the result does not depend on the order of the index rows") {
    val index = vecs(9L, T + 3, 24, idBase = 0L)
    val queries = vecs(10L, 5, 24, idBase = 0L).map(_._2)
    val a = run(index, queries, 7)
    val b = run(new scala.util.Random(3).shuffle(index), queries, 7)
    assert(a.map(h => (h.nids.toSeq, h.dists.toSeq)).toSeq == b.map(h => (h.nids.toSeq, h.dists.toSeq)).toSeq)
  }

  test("near-ties the float screen cannot certify fall back to the exact scan") {
    // 40 exact copies of one vector and 40 of a second that differs in one
    // component by one float ulp: the float screen sees one value for all
    // 80 rows, so the k-th and the last survivor cannot be told apart.
    val dim = 64
    val base = Det.uniformVec(7L, dim).map(_ * 2f)
    val bumped = base.clone(); bumped(3) = Math.nextUp(bumped(3))
    val dups = (0 until 80).map(i => (1000L - 7 * i, if (i % 2 == 0) base else bumped))
    val index = dups ++ vecs(8L, T, dim, idBase = 2000L)
    val queries = Seq(base.map(_ + 0.25f), Det.uniformVec(9L, dim))
    val hits = assertOracle(index, queries, 10, "duplicates")
    assert(!hits(0).screened, "the duplicate block must take the exact fallback")
    assert(hits(1).screened, "a query far from the duplicates stays on the screen")
  }

  test("quantised vectors with many exact ties match the oracle") {
    val dim = 8
    def grid(seed: Long, n: Int, idBase: Long) = (0 until n).map { i =>
      (idBase + i, Array.tabulate(dim)(p => (Det.nextInt(Det.seed(seed, i.toLong, p.toLong), 3) - 1).toFloat))
    }
    val index = grid(1L, T + 50, 100L)
    assertOracle(index, grid(2L, 20, 0L).map(_._2), 12, "grid")
  }

  test("rows ever nearer with id enter the screen's buffer and shift it in full") {
    // every row is nearer to both queries than all rows before it, so each
    // offer enters the full buffer at its head, across two tile edges
    val (n, dim) = (2 * T + 37, 8)
    val index = (0 until n).map(i => (i.toLong, Array.fill(dim)((n - i) * 0.5f)))
    val queries = Seq(Array.fill(dim)(0f), Array.fill(dim)(-3f))
    for (k <- Seq(1, 10, n)) {
      val hits = assertOracle(index, queries, k, s"k $k")
      assert(hits.forall(_.screened), s"k $k")
      assert(hits.head.nids.toSeq == (n - 1 until n - 1 - k by -1).map(_.toLong), s"k $k")
    }
  }

  test("NaN and infinite components match the oracle, NaN distances last") {
    val dim = 16
    val index = vecs(11L, T + 9, dim, idBase = 0L).zipWithIndex.map { case ((id, v), i) =>
      if (i % 97 == 0) v(i % dim) = Float.NaN else if (i % 89 == 0) v(i % dim) = Float.PositiveInfinity
      (id, v)
    }
    val queries = vecs(12L, 4, dim, idBase = 0L).map(_._2) :+ Array.fill(dim)(Float.NaN)
    assertOracle(index, queries, 9, "non-finite")
  }

  test("a serialized index holds each vector once") {
    val (n, dim) = (2 * T + 7, 64)
    val index = KnnKernel.Index(vecs(13L, n, dim, idBase = 0L).toArray)
    KnnKernel.search(index, Array(Array.fill(dim)(0.5f)), 3) // builds the tiles
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(index); out.close()
    assert(bytes.size < 1.25 * n * dim * 4, s"${bytes.size} bytes for ${n * dim * 4} bytes of floats")
  }

  test("k must be positive and dimensions must agree") {
    val index = KnnKernel.Index(vecs(1L, 4, 3, 0L).toArray)
    intercept[IllegalArgumentException](KnnKernel.search(index, Array(Array(0f, 0f, 0f)), 0))
    intercept[IllegalArgumentException](KnnKernel.search(index, Array(Array(0f, 0f)), 1))
    intercept[IllegalArgumentException](KnnKernel.Index(Array(1L -> Array(0f), 2L -> Array(0f, 1f))))
  }
}
