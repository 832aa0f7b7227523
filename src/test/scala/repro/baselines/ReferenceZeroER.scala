package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.embed.Tokenizer

/** Reference ZeroER steps: overlap blocking as Spark SQL (explode, anti-
  * joins against the frequent tokens, a join on the token, a count per
  * pair and a `Window` rank per left entity) and EM over row arrays with
  * the log of each variance taken inside the (row, feature) loop. Shares
  * no code with `ZeroER` beyond `Tokenizer`.
  */
object ReferenceZeroER {

  /** Token-overlap blocking: entities sharing a non-frequent token become
    * candidates; each left entity keeps its `cap` highest-overlap rights,
    * ties broken by the lower right id.
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
    val frequent = t2.groupBy("token").count().filter(col("count") > n2 * 0.20).select("token")
    val t2f = t2.join(frequent, Seq("token"), "left_anti")
    val t1f = t1.join(frequent, Seq("token"), "left_anti")

    val overlaps = t1f.join(t2f, Seq("token"))
      .groupBy("id1", "id2").agg(count(lit(1)).as("overlap"))
    val w = Window.partitionBy("id1").orderBy(col("overlap").desc, col("id2").asc)
    overlaps.withColumn("r", row_number().over(w)).filter(col("r") <= cap).select("id1", "id2")
  }

  /** Posterior of the match component per feature vector. */
  def emPosteriors(feats: Array[Array[Double]], iters: Int = 30): Array[Double] = {
    val n = feats.length
    if (n == 0) return Array.empty
    val d = feats(0).length
    val score = feats.map(_.sum)
    val sorted = score.sorted
    val cut = sorted(math.min(n - 1, (0.99 * n).toInt))

    val resp = new Array[Double](n)
    var i = 0
    while (i < n) { resp(i) = if (score(i) >= cut) 0.9 else 0.1; i += 1 }

    val muM = new Array[Double](d); val muU = new Array[Double](d)
    val vaM = new Array[Double](d); val vaU = new Array[Double](d)
    var piM = 0.1

    var it = 0
    while (it < iters) {
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
