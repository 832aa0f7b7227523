package repro.blocking

import repro.util.Det

/** Exact k-nearest-neighbour search by Euclidean distance, without Spark.
  *
  * The result for a query is exactly the k index rows with the smallest
  * `Det.l2` distance, ordered by (distance, id), with those double
  * distances. It is found in two steps:
  *
  *  1. **Float screen.** Squared distances to every index row are summed
  *     in float, a tile of rows at a time, and a sorted buffer keeps the
  *     `k + Slack` smallest per query. The screen reads the index in
  *     tiles of up to [[TileRows]] rows, one `Array[Float]` per dimension,
  *     so the innermost loop (`accumulate`) walks two arrays from index 0
  *     and C2 turns it into SIMD code. Indexing one flat array at an offset
  *     (`tile(base + j)`) keeps C2 from vectorizing it and runs about six
  *     times slower. The JDK's Vector API would need `--add-modules` on
  *     every JVM that runs this code, so it is not used. Distances are
  *     summed as `(q_p - x_p)^2`, never as `|q|^2 + |x|^2 - 2 q.x`, which
  *     cancels catastrophically near distance 0.
  *  2. **Exact re-rank.** The survivors are re-scored with `Det.l2` in
  *     double and kept in (distance, id) order by insertion into a buffer
  *     of k. This is exact whenever the screen is certified: each float
  *     sum lies within a relative `(dim + 4) * 2^-24` of the true squared
  *     distance, so if the largest survivor exceeds the k-th smallest by
  *     more than twice that (the test uses four times), no row outside the
  *     survivors can be among the true k nearest. A query that is not
  *     certified (many rows at almost the same distance, e.g. duplicate
  *     vectors) is answered by a full double scan instead.
  *
  * Rows are scanned in ascending id order, so ties in the screen also
  * resolve by id, and the result never depends on input order.
  *
  * An [[Index]] holds each vector once, row by row; that is all a
  * broadcast serializes. The tiles are a transient, lazy copy that each
  * JVM builds from the rows on its first search.
  */
object KnnKernel {

  /** Rows per index tile: a 768-d tile (1.5 MB) stays in a 2 MB L2 cache
    * while a batch of queries runs over it.
    */
  val TileRows = 512

  /** Extra rows the screen keeps beyond k, so that the gap between the
    * k-th and the last survivor usually certifies the screen.
    */
  private val Slack = 8

  private val FloatUlp = math.pow(2, -24)

  /** The index rows sorted by id, each vector held once: `vecs` is what
    * is serialized (a broadcast ships ids and rows only) and what the
    * re-rank reads. `tiles(t)(p)(j)` = component p of row
    * `t * TileRows + j` is the screen's layout of the same values; it is
    * transient and built on first use, once in each JVM that holds the
    * index.
    */
  final class Index private (val ids: Array[Long], val vecs: Array[Array[Float]], val dim: Int)
    extends Serializable {
    def size: Int = ids.length

    @transient lazy val tiles: Array[Array[Array[Float]]] =
      vecs.grouped(TileRows).map(t => Array.tabulate(dim)(p => t.map(_(p)))).toArray
  }

  object Index {
    def apply(rows: Array[(Long, Array[Float])]): Index = {
      val sorted = rows.sortBy(_._1)
      val vecs = sorted.map(_._2)
      val dim = if (vecs.isEmpty) 0 else vecs(0).length
      require(vecs.forall(_.length == dim), "index vectors differ in dimension")
      new Index(sorted.map(_._1), vecs, dim)
    }
  }

  /** The nearest index ids of one query, nearest first, with their
    * `Det.l2` distances; `screened` is false when the full scan ran.
    */
  final case class Hits(nids: Array[Long], dists: Array[Double], screened: Boolean)

  /** The min(k, index size) nearest rows for each query. Queries are
    * processed together so that each tile is loaded into cache once.
    */
  def search(index: Index, queries: Array[Array[Float]], k: Int): Array[Hits] = {
    require(k > 0, s"k must be positive, got $k")
    require(queries.forall(_.length == index.dim),
      s"query dimension differs from the index dimension ${index.dim}")
    val n = index.size
    val m = math.min(n, k + Slack)
    val best = Array.fill(queries.length)(new FloatBest(m))
    val acc = new Array[Float](TileRows)
    val tiles = index.tiles
    var t = 0
    while (t < tiles.length) {
      val cols = tiles(t)
      val base = t * TileRows
      val rows = math.min(TileRows, n - base)
      var qi = 0
      while (qi < queries.length) {
        val q = queries(qi)
        java.util.Arrays.fill(acc, 0f)
        var p = 0
        while (p < index.dim) { accumulate(acc, cols(p), q(p)); p += 1 }
        val h = best(qi)
        var j = 0
        while (j < rows) { h.offer(acc(j), base + j); j += 1 }
        qi += 1
      }
      t += 1
    }
    queries.indices.map { qi =>
      val b = best(qi)
      if (certified(b.vals, k, n, index.dim)) rerank(index, queries(qi), b.rows, k, screened = true)
      else rerank(index, queries(qi), Array.range(0, n), k, screened = false)
    }.toArray
  }

  /** acc(j) += (qp - col(j))^2 over the whole column. Kept a separate
    * method with a zero-based loop so that C2 vectorizes it.
    */
  private def accumulate(acc: Array[Float], col: Array[Float], qp: Float): Unit = {
    var j = 0
    while (j < col.length) { val d = qp - col(j); acc(j) += d * d; j += 1 }
  }

  /** True when no row outside `survivors` can be among the k nearest: the
    * last survivor's float value exceeds the k-th's by four times the
    * screen's relative error, plus an absolute term for subnormal sums.
    * A NaN sum (from a NaN or infinite component) never certifies.
    */
  private def certified(vals: Array[Float], k: Int, n: Int, dim: Int): Boolean =
    vals.length == n || !vals.exists(_.isNaN) && {
      val kth = vals(k - 1).toDouble
      val last = vals(vals.length - 1).toDouble
      last <= Float.MaxValue &&
        last > kth * (1.0 + 4.0 * (dim + 4) * FloatUlp) + (dim + 4) * java.lang.Float.MIN_NORMAL
    }

  /** The k nearest of `rows` by (`Det.l2`, id): each row is inserted into
    * a sorted buffer of the best k so far, and skipped when it is not
    * ahead of the buffer's last. Rows ascend with id, so (distance, row)
    * orders as (distance, id); distances compare by
    * `java.lang.Double.compare`, NaN last.
    */
  private def rerank(index: Index, q: Array[Float], rows: Array[Int], k: Int, screened: Boolean): Hits = {
    val m = math.min(k, rows.length)
    val best = new Array[Int](m)
    val dists = new Array[Double](m)
    def ahead(d: Double, r: Int, j: Int): Boolean = {
      val c = java.lang.Double.compare(d, dists(j))
      c < 0 || (c == 0 && r < best(j))
    }
    var held = 0
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      val d = Det.l2(q, index.vecs(r))
      if (held < m || ahead(d, r, m - 1)) {
        var j = if (held < m) { held += 1; held - 1 } else m - 1
        while (j > 0 && ahead(d, r, j - 1)) { best(j) = best(j - 1); dists(j) = dists(j - 1); j -= 1 }
        best(j) = r; dists(j) = d
      }
      i += 1
    }
    Hits(best.map(index.ids), dists, screened)
  }

  /** The `cap` smallest (float value, row) pairs offered, in ascending
    * (value, row) order, kept by insertion like [[rerank]]'s buffer.
    * Rows must be offered in ascending order, so an equal value stays
    * behind the row held first. A NaN value is never ahead of a held
    * one, and once held it is never dropped, so `certified` sees it.
    */
  private final class FloatBest(cap: Int) {
    val vals = new Array[Float](cap)
    val rows = new Array[Int](cap)
    private var held = 0

    def offer(v: Float, row: Int): Unit =
      if (held < cap || v < vals(cap - 1)) {
        var j = if (held < cap) { held += 1; held - 1 } else cap - 1
        while (j > 0 && v < vals(j - 1)) { vals(j) = vals(j - 1); rows(j) = rows(j - 1); j -= 1 }
        vals(j) = v; rows(j) = row
      }
  }
}
