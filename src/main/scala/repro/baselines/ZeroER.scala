package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
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

  /** Levenshtein similarity 1 − dist/maxLen over length-capped strings. */
  def levSim(a0: String, b0: String, cap: Int = 400): Double = {
    val a = if (a0.length > cap) a0.substring(0, cap) else a0
    val b = if (b0.length > cap) b0.substring(0, cap) else b0
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

  /** Token-overlap blocking: entities sharing a non-frequent token become
    * candidates; each left entity keeps its `cap` highest-overlap rights.
    */
  def overlapBlocking(s1: DataFrame, s2: DataFrame, cap: Int = 500): DataFrame = {
    val spark = s1.sparkSession
    import spark.implicits._

    def tokensOf(df: DataFrame, idCol: String) =
      df.select(col("id").as(idCol), col("sentence"))
        .as[(Long, String)]
        .flatMap { case (id, s) => Tokenizer.tokenize(s).distinct.map(t => (id, t)) }
        .toDF(idCol, "token")

    val t1 = tokensOf(s1, "id1")
    val t2 = tokensOf(s2, "id2")
    val n2 = s2.count()
    // drop only truly frequent stop-tokens (>20% of the right collection),
    // as Magellan's overlap blocker would
    val frequent = t2.groupBy("token").count().filter(col("count") > n2 * 0.20).select("token")
    val t2f = t2.join(frequent, Seq("token"), "left_anti")
    val t1f = t1.join(frequent, Seq("token"), "left_anti")

    val overlaps = t1f.join(t2f, Seq("token"))
      .groupBy("id1", "id2").agg(count(lit(1)).as("overlap"))
    val w = Window.partitionBy("id1").orderBy(col("overlap").desc, col("id2").asc)
    overlaps.withColumn("r", row_number().over(w)).filter(col("r") <= cap).select("id1", "id2")
  }

  private final class Timeout extends RuntimeException

  /** The "did not terminate" budget of Table 5(b), in seconds. */
  val DefaultBudgetSecs = 30.0

  /** Run end-to-end; None if the time budget is exhausted. */
  def run(s1: DataFrame, s2: DataFrame, groundTruth: DataFrame,
          budgetSecs: Double = DefaultBudgetSecs, cap: Int = 500): Option[Result] = {
    val spark = s1.sparkSession
    import spark.implicits._
    val t0 = System.nanoTime()
    def elapsed: Double = (System.nanoTime() - t0) / 1e9
    def check(): Unit = if (elapsed > budgetSecs) throw new Timeout

    try {
      // ---- preprocessing phase: blocking + feature computation ----
      val cands = overlapBlocking(s1, s2, cap).collect().map(r => (r.getLong(0), r.getLong(1)))
      check()

      val a1 = s1.select("id", "attrs").as[(Long, Seq[String])].collect().toMap
      val a2 = s2.select("id", "attrs").as[(Long, Seq[String])].collect().toMap
      val minA = math.min(a1.head._2.length, a2.head._2.length)

      // strictly schema-based features: attribute i vs attribute i only —
      // misplaced values land in the wrong column and zero these out,
      // which is exactly why the paper reports F1 ≈ 0 for ZeroER on D1
      val feats = new Array[Array[Double]](cands.length)
      var c = 0
      while (c < cands.length) {
        val (i1, i2) = cands(c)
        val v1 = a1(i1); val v2 = a2(i2)
        val f = new Array[Double](2 * minA)
        var a = 0
        while (a < minA) {
          f(2 * a)     = jaccard(Tokenizer.tokenize(v1(a)).toSet, Tokenizer.tokenize(v2(a)).toSet)
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
      val predicted = cands.zip(post).collect { case (p, q) if q > 0.5 => p }.toSet
      val matchSecs = (System.nanoTime() - tm0) / 1e9

      val gt = groundTruth.select("id1", "id2").as[(Long, Long)].collect().toSet
      val (p, r, f1) = MatchMetrics.prf(predicted, gt)
      Some(Result(p, r, f1, prepSecs, matchSecs))
    } catch { case _: Timeout => None }
  }

  /** Posterior of the match component per feature vector. */
  def emPosteriors(feats: Array[Array[Double]], check: () => Unit, iters: Int = 30): Array[Double] = {
    val n = feats.length
    if (n == 0) return Array.empty
    val d = feats(0).length
    val score = feats.map(_.sum)
    val sorted = score.sorted
    val cut = sorted(math.min(n - 1, (0.99 * n).toInt)) // top 1% seeds the match comp

    val resp = new Array[Double](n)
    var i = 0
    while (i < n) { resp(i) = if (score(i) >= cut) 0.9 else 0.1; i += 1 }

    val muM = new Array[Double](d); val muU = new Array[Double](d)
    val vaM = new Array[Double](d); val vaU = new Array[Double](d)
    var piM = 0.1

    var it = 0
    while (it < iters) {
      check()
      // M-step
      var wM = 0.0
      java.util.Arrays.fill(muM, 0.0); java.util.Arrays.fill(muU, 0.0)
      i = 0
      while (i < n) {
        wM += resp(i)
        var j = 0
        while (j < d) { muM(j) += resp(i) * feats(i)(j); muU(j) += (1 - resp(i)) * feats(i)(j); j += 1 }
        i += 1
      }
      val wU = n - wM
      var j = 0
      while (j < d) { muM(j) /= math.max(wM, 1e-9); muU(j) /= math.max(wU, 1e-9); j += 1 }
      java.util.Arrays.fill(vaM, 0.0); java.util.Arrays.fill(vaU, 0.0)
      i = 0
      while (i < n) {
        j = 0
        while (j < d) {
          val dm = feats(i)(j) - muM(j); val du = feats(i)(j) - muU(j)
          vaM(j) += resp(i) * dm * dm; vaU(j) += (1 - resp(i)) * du * du
          j += 1
        }
        i += 1
      }
      j = 0
      while (j < d) {
        vaM(j) = math.max(vaM(j) / math.max(wM, 1e-9), 1e-4)
        vaU(j) = math.max(vaU(j) / math.max(wU, 1e-9), 1e-4)
        j += 1
      }
      piM = math.min(math.max(wM / n, 1e-4), 1 - 1e-4)
      // E-step
      i = 0
      while (i < n) {
        var lm = math.log(piM); var lu = math.log(1 - piM)
        j = 0
        while (j < d) {
          val dm = feats(i)(j) - muM(j); val du = feats(i)(j) - muU(j)
          lm += -0.5 * (math.log(2 * math.Pi * vaM(j)) + dm * dm / vaM(j))
          lu += -0.5 * (math.log(2 * math.Pi * vaU(j)) + du * du / vaU(j))
          j += 1
        }
        val mx = math.max(lm, lu)
        resp(i) = math.exp(lm - mx) / (math.exp(lm - mx) + math.exp(lu - mx))
        i += 1
      }
      it += 1
    }
    resp
  }
}
