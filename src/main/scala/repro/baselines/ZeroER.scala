package repro.baselines

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.data.EntityRow
import repro.embed.Tokenizer
import repro.matching.MatchMetrics

/** ZeroER baseline (Wu et al., SIGMOD 2020) — the paper's unsupervised
  * matching comparator: Magellan-style token-overlap blocking, per-
  * attribute *schema-based* similarity features, and a two-component
  * Gaussian Mixture fitted by EM over the feature vectors; pairs whose
  * match-component posterior exceeds 0.5 are emitted as duplicates.
  *
  * Schema-based features are the point: misplaced values (D1) land in the
  * wrong column and zero the features (→ F1 ≈ 0, as the paper reports),
  * while Levenshtein over long textual attributes (D2/D3) makes the
  * preprocessing phase orders of magnitude slower than the embedding
  * pipeline — runs exceeding `budgetSecs` return None ("did not
  * terminate", the paper's '-').
  */
object ZeroER {

  final case class Result(precision: Double, recall: Double, f1: Double,
                          prepSecs: Double, matchSecs: Double)

  /** Characters of a string that [[levSim]] compares, and the iterations of [[emPosteriors]]. */
  private val LevCap  = 400
  private val EmIters = 30

  /** Levenshtein similarity 1 − dist/maxLen over length-capped strings. */
  def levSim(a0: String, b0: String): Double = {
    val a = if (a0.length > LevCap) a0.substring(0, LevCap) else a0
    val b = if (b0.length > LevCap) b0.substring(0, LevCap) else b0
    if (a.isEmpty && b.isEmpty) return 1.0
    if (a.isEmpty || b.isEmpty) return 0.0
    var prev = Array.tabulate(b.length + 1)(identity)
    var cur  = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      cur(0) = i
      var j = 1
      while (j <= b.length) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        cur(j) = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    1.0 - prev(b.length).toDouble / math.max(a.length, b.length)
  }

  def jaccard(a: Set[String], b: Set[String]): Double = {
    if (a.isEmpty && b.isEmpty) return 1.0
    val inter = a.intersect(b).size
    val union = a.size + b.size - inter
    if (union == 0) 0.0 else inter.toDouble / union
  }

  /** One source on the driver, in id order: each entity's id, attribute
    * values and distinct sentence tokens.
    */
  private final class Side(rows: Array[EntityRow]) {
    private val sorted = rows.sortBy(_.id)
    val ids: Array[Long] = sorted.map(_.id)
    require(ids.indices.drop(1).forall(i => ids(i - 1) < ids(i)), "entity ids must be unique within a source")
    val attrs: Array[Seq[String]] = sorted.map(_.attrs)
    val tokens: Array[Array[String]] = sorted.map(r => Tokenizer.tokenize(r.sentence).distinct)
    def size: Int = ids.length
  }

  /** Token-overlap blocking: entities sharing a non-frequent token become
    * candidates; each left entity keeps its `cap` highest-overlap rights,
    * ties broken by the lower right id. Pairs come in (id1 asc, overlap
    * desc, id2 asc) order.
    */
  def overlapBlocking(e1: Array[EntityRow], e2: Array[EntityRow], cap: Int = BlockingCap): Array[(Long, Long)] = {
    val (s1, s2) = (new Side(e1), new Side(e2))
    val (p1, p2) = candidates(s1, s2, cap, () => ())
    Array.tabulate(p1.length)(c => (s1.ids(p1(c)), s2.ids(p2(c))))
  }

  /** [[overlapBlocking]] over positions of the two sides, by an inverted
    * index of side 2: a token in more than 20% of side 2's entities is a
    * stop-token, as in Magellan's overlap blocker, and is dropped. Each
    * left entity counts its overlaps in one array, reset through the list
    * of the rights it touched. `check` runs every 256 left entities.
    */
  private def candidates(s1: Side, s2: Side, cap: Int, check: () => Unit): (Array[Int], Array[Int]) = {
    val n2 = s2.size
    val dict = mutable.HashMap.empty[String, Int]
    val docs2 = s2.tokens.map(_.map(tok => dict.getOrElseUpdate(tok, dict.size)))
    val nTok = dict.size
    // postings of token t: post(start(t) until start(t + 1)), side-2 positions ascending
    val start = new Array[Int](nTok + 1)
    docs2.foreach(_.foreach(t => start(t + 1) += 1))
    val frequent = Array.tabulate(nTok)(t => start(t + 1) > n2 * 0.20)
    var t = 0
    while (t < nTok) { start(t + 1) += start(t); t += 1 }
    val post = new Array[Int](start(nTok))
    val fill = java.util.Arrays.copyOf(start, nTok)
    var p = 0
    while (p < n2) { docs2(p).foreach { d => post(fill(d)) = p; fill(d) += 1 }; p += 1 }

    val overlap = new Array[Int](n2)
    val touched = new Array[Int](n2)
    val keys = new Array[Long](n2)
    val out1 = Array.newBuilder[Int]; val out2 = Array.newBuilder[Int]
    var i = 0
    while (i < s1.size) {
      if ((i & 0xff) == 0) check()
      var nt = 0
      s1.tokens(i).foreach { tok =>
        val id = dict.getOrElse(tok, -1)
        if (id >= 0 && !frequent(id)) {
          var q = start(id)
          while (q < start(id + 1)) {
            val r = post(q)
            if (overlap(r) == 0) { touched(nt) = r; nt += 1 }
            overlap(r) += 1
            q += 1
          }
        }
      }
      // ascending keys = overlap desc, then position (= id2) asc
      var k = 0
      while (k < nt) {
        val r = touched(k)
        keys(k) = (Int.MaxValue - overlap(r)).toLong << 32 | r
        overlap(r) = 0
        k += 1
      }
      java.util.Arrays.sort(keys, 0, nt)
      k = 0
      while (k < math.min(nt, cap)) { out1 += i; out2 += keys(k).toInt; k += 1 }
      i += 1
    }
    (out1.result(), out2.result())
  }

  private final class Timeout extends RuntimeException

  /** The "did not terminate" budget of Table 5(b), in seconds. */
  val DefaultBudgetSecs = 30.0

  /** Rights kept per left entity by [[run]]'s overlap blocking. */
  val BlockingCap = 500

  /** Run end-to-end on the two sources and the ground-truth (id1, id2)
    * pairs; None if the time budget is exhausted.
    */
  def run(e1: Array[EntityRow], e2: Array[EntityRow], gt: Set[(Long, Long)],
          budgetSecs: Double = DefaultBudgetSecs): Option[Result] = {
    val t0 = System.nanoTime()
    def elapsed: Double = (System.nanoTime() - t0) / 1e9
    def check(): Unit = if (elapsed > budgetSecs) throw new Timeout

    try {
      // ---- preprocessing phase: blocking + feature computation ----
      val side1 = new Side(e1); val side2 = new Side(e2)
      val (c1, c2) = candidates(side1, side2, BlockingCap, () => check())
      check()

      // strictly schema-based features: attribute i vs attribute i only —
      // misplaced values land in the wrong column and zero these out,
      // which is exactly why the paper reports F1 ≈ 0 for ZeroER on D1
      val minA = if (c1.isEmpty) 0 else math.min(side1.attrs(0).length, side2.attrs(0).length)
      def tokenSets(side: Side) = side.attrs.map(v => Array.tabulate(minA)(a => Tokenizer.tokenize(v(a)).toSet))
      val sets1 = tokenSets(side1); val sets2 = tokenSets(side2)
      val feats = new Array[Array[Double]](c1.length)
      var c = 0
      while (c < c1.length) {
        val v1 = side1.attrs(c1(c)); val v2 = side2.attrs(c2(c))
        val j1 = sets1(c1(c)); val j2 = sets2(c2(c))
        val f = new Array[Double](2 * minA)
        var a = 0
        while (a < minA) {
          f(2 * a)     = jaccard(j1(a), j2(a))
          f(2 * a + 1) = levSim(v1(a), v2(a))
          a += 1
        }
        feats(c) = f
        if ((c & 0xff) == 0) check()
        c += 1
      }
      val prepSecs = elapsed

      // ---- matching phase: 2-component diagonal GMM via EM ----
      val tm0 = System.nanoTime()
      val post = emPosteriors(feats, () => check())
      val predicted = post.indices.collect { case c if post(c) > 0.5 => (side1.ids(c1(c)), side2.ids(c2(c))) }.toSet
      val matchSecs = (System.nanoTime() - tm0) / 1e9

      val (p, r, f1) = MatchMetrics.prf(predicted, gt)
      Some(Result(p, r, f1, prepSecs, matchSecs))
    } catch { case _: Timeout => None }
  }

  /** [[run]] on two (id, attrs, sentence) frames and an (id1, id2) frame.
    * Kept for erperf; ROADMAP item 1 deletes it.
    */
  def run(s1: DataFrame, s2: DataFrame, groundTruth: DataFrame, budgetSecs: Double): Option[Result] = {
    import s1.sparkSession.implicits._
    def rows(s: DataFrame) = s.select("id", "attrs", "sentence").as[EntityRow].collect()
    run(rows(s1), rows(s2), groundTruth.select("id1", "id2").as[(Long, Long)].collect().toSet, budgetSecs)
  }

  /** Posterior of the match component per feature vector. The rows are
    * copied once into one row-major matrix, and each iteration takes the
    * log of each variance once per feature; the sums run in row order.
    */
  def emPosteriors(feats: Array[Array[Double]], check: () => Unit): Array[Double] = {
    val n = feats.length
    if (n == 0) return Array.empty
    val d = feats(0).length
    val x = new Array[Double](n * d)
    var i = 0
    while (i < n) { System.arraycopy(feats(i), 0, x, i * d, d); i += 1 }
    val score = feats.map(_.sum)
    val sorted = score.sorted
    val cut = sorted(math.min(n - 1, (0.99 * n).toInt)) // top 1% seeds the match comp

    val resp = new Array[Double](n)
    i = 0
    while (i < n) { resp(i) = if (score(i) >= cut) 0.9 else 0.1; i += 1 }

    val muM = new Array[Double](d); val muU = new Array[Double](d)
    val vaM = new Array[Double](d); val vaU = new Array[Double](d)
    val lgM = new Array[Double](d); val lgU = new Array[Double](d)
    var piM = 0.1

    var it = 0
    while (it < EmIters) {
      check()
      // M-step
      var wM = 0.0
      java.util.Arrays.fill(muM, 0.0); java.util.Arrays.fill(muU, 0.0)
      i = 0
      while (i < n) {
        val r = resp(i); val u = 1 - r; val row = i * d
        wM += r
        var j = 0
        while (j < d) { muM(j) += r * x(row + j); muU(j) += u * x(row + j); j += 1 }
        i += 1
      }
      val wU = n - wM
      var j = 0
      while (j < d) { muM(j) /= math.max(wM, 1e-9); muU(j) /= math.max(wU, 1e-9); j += 1 }
      java.util.Arrays.fill(vaM, 0.0); java.util.Arrays.fill(vaU, 0.0)
      i = 0
      while (i < n) {
        val r = resp(i); val u = 1 - r; val row = i * d
        j = 0
        while (j < d) {
          val dm = x(row + j) - muM(j); val du = x(row + j) - muU(j)
          vaM(j) += r * dm * dm; vaU(j) += u * du * du
          j += 1
        }
        i += 1
      }
      j = 0
      while (j < d) {
        vaM(j) = math.max(vaM(j) / math.max(wM, 1e-9), 1e-4)
        vaU(j) = math.max(vaU(j) / math.max(wU, 1e-9), 1e-4)
        lgM(j) = math.log(2 * math.Pi * vaM(j))
        lgU(j) = math.log(2 * math.Pi * vaU(j))
        j += 1
      }
      piM = math.min(math.max(wM / n, 1e-4), 1 - 1e-4)
      val lpM = math.log(piM); val lpU = math.log(1 - piM)
      // E-step
      i = 0
      while (i < n) {
        var lm = lpM; var lu = lpU
        val row = i * d
        j = 0
        while (j < d) {
          val dm = x(row + j) - muM(j); val du = x(row + j) - muU(j)
          lm += -0.5 * (lgM(j) + dm * dm / vaM(j))
          lu += -0.5 * (lgU(j) + du * du / vaU(j))
          j += 1
        }
        val mx = math.max(lm, lu)
        val em = math.exp(lm - mx); val eu = math.exp(lu - mx)
        resp(i) = em / (em + eu)
        i += 1
      }
      it += 1
    }
    resp
  }
}
