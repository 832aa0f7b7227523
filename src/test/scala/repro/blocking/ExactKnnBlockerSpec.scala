package repro.blocking

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.util.Det

class ExactKnnBlockerSpec extends SparkSpec {

  private def vecDf(vs: Seq[(Long, Array[Float])]) = {
    import spark.implicits._
    vs.toDF("id", "vec")
  }

  /** The (qid, nid, dist, rank) rows of `nb`, in its order. */
  private def hitRows(nb: ExactKnnBlocker.Neighbours): Seq[(Long, Long, Double, Int)] =
    nb.nids.indices.map(h => (nb.qid(h), nb.nids(h), nb.dists(h), nb.rank(h)))

  private val queries = Seq(
    0L -> Array(0f, 0f), 1L -> Array(10f, 10f))
  private val index = Seq(
    100L -> Array(0f, 1f), 101L -> Array(0f, 2f), 102L -> Array(0f, 3f),
    103L -> Array(10f, 9f), 104L -> Array(5f, 5f))

  test("topK returns the k nearest per query in rank order") {
    import spark.implicits._
    val top = ExactKnnBlocker.topK(vecDf(queries), vecDf(index), 2)
      .select("qid", "nid", "rank").as[(Long, Long, Int)].collect().toSet
    assert(top == Set((0L, 100L, 1), (0L, 101L, 2), (1L, 103L, 1), (1L, 104L, 2)))
  }

  test("distances are exact euclidean") {
    import spark.implicits._
    val top = ExactKnnBlocker.topK(vecDf(queries), vecDf(index), 1)
      .select("qid", "dist").as[(Long, Double)].collect().toMap
    assert(math.abs(top(0L) - 1.0) < 1e-6)
    assert(math.abs(top(1L) - 1.0) < 1e-6)
  }

  test("k larger than index returns all index rows") {
    val top = ExactKnnBlocker.topK(vecDf(queries), vecDf(index), 100)
    assert(top.count() == queries.size * index.size)
    val nb = ExactKnnBlocker.search(queries.toArray, index.toArray, 100)
    assert(nb.k == index.size && nb.nids.length == queries.size * index.size)
    assert(nb.qids.toSeq == queries.map(_._1))
  }

  test("k must be positive") {
    intercept[IllegalArgumentException](ExactKnnBlocker.search(queries.toArray, index.toArray, 0))
  }

  test("agrees with brute force on random vectors") {
    val rq = (0L until 15L).map(i => i -> Det.uniformVec(Det.seed(1L, i), 24))
    val ri = (0L until 40L).map(i => (100L + i) -> Det.uniformVec(Det.seed(2L, i), 24))
    val k = 5
    import spark.implicits._
    val got = hitRows(ExactKnnBlocker.search(rq.toArray, ri.toArray, k))
    val adapted = ExactKnnBlocker.topK(vecDf(rq), vecDf(ri), k)
      .as[(Long, Long, Double, Int)].collect().sorted.toSeq
    assert(got == BruteForceKnn.topK(rq, ri, k))
    assert(adapted == got.sorted)
  }

  test("ties broken by ascending nid") {
    import spark.implicits._
    val q = Seq(0L -> Array(0f))
    val i = Seq(5L -> Array(1f), 3L -> Array(1f), 9L -> Array(1f))
    val top = ExactKnnBlocker.topK(vecDf(q), vecDf(i), 2)
      .orderBy("rank").select("nid").as[Long].collect().toSeq
    assert(top == Seq(3L, 5L))
  }

  test("a tie at the k-th place keeps the smallest nid, whatever the arrival order") {
    val q = Array(0L -> Array(0f))
    val i = Array(5L -> Array(1f), 3L -> Array(1f), 9L -> Array(1f))
    Seq(i, i.reverse).foreach(is => assert(ExactKnnBlocker.search(q, is, 1).nids.toSeq == Seq(3L)))
  }

  test("output does not depend on how either side is partitioned or ordered") {
    import spark.implicits._
    // a coarse grid, so that many index rows tie at the k-th place
    def grid(seed: Long, n: Int, idBase: Long) = (0 until n).map { r =>
      (idBase + r, Array.tabulate(6)(p => (Det.nextInt(Det.seed(seed, r.toLong, p.toLong), 3) - 1).toFloat))
    }
    val rq = grid(11L, 50, 0L); val ri = grid(12L, 300, 1000L)
    def rows(qs: org.apache.spark.sql.DataFrame, is: org.apache.spark.sql.DataFrame) =
      ExactKnnBlocker.topK(qs, is, 7).as[(Long, Long, Double, Int)].collect().sorted.toSeq
    def searched(qs: Seq[(Long, Array[Float])], is: Seq[(Long, Array[Float])]) =
      hitRows(ExactKnnBlocker.search(qs.toArray, is.toArray, 7)).sorted
    val want = BruteForceKnn.topK(rq, ri, 7).sorted
    val shuffled = new scala.util.Random(5).shuffle(ri)
    Seq(
      searched(rq, shuffled),
      searched(new scala.util.Random(6).shuffle(rq), ri.reverse),
      rows(vecDf(rq), vecDf(ri).repartition(1)),
      rows(vecDf(rq), vecDf(ri).repartition(7)),
      rows(vecDf(rq), vecDf(shuffled)),
      rows(vecDf(rq).repartition(5), vecDf(shuffled).coalesce(1)),
      rows(vecDf(rq).repartition(1), vecDf(ri).repartition(3))
    ).foreach(got => assert(got == want))
  }

  test("an empty side gives an empty frame with the four columns") {
    assert(ExactKnnBlocker.search(Array.empty, index.toArray, 3).nids.isEmpty)
    val noIndex = ExactKnnBlocker.search(queries.toArray, Array.empty, 3)
    assert(noIndex.nids.isEmpty && noIndex.k == 0)
    val empty = vecDf(Seq.empty)
    Seq(ExactKnnBlocker.topK(empty, vecDf(index), 3), ExactKnnBlocker.topK(vecDf(queries), empty, 3))
      .foreach { top =>
        assert(top.columns.toSeq == Seq("qid", "nid", "dist", "rank"))
        assert(top.count() == 0)
      }
  }

  test("a dimension mismatch between the sides fails on the driver") {
    val e = intercept[IllegalArgumentException](
      ExactKnnBlocker.search(queries.toArray, Array(7L -> Array(1f, 2f, 3f)), 1))
    assert(e.getMessage.contains("dimension"))
  }

  test("oracle: grouped-min (the top-1-per-group pattern) agrees with DuckDB") {
    import spark.implicits._
    val pts = (0 until 60).map(i =>
      (i.toLong, (Det.uniform(Det.seed(3L, i)) * 4).toInt, (Det.uniform(Det.seed(4L, i)) * 100).toInt))
      .toDF("id", "g", "y")
    val got = pts.groupBy("g").agg(min(col("y")).as("best"))
      .select(col("g").cast("int").as("g"), col("best").cast("int").as("best"))
    Oracle.assertEquivalent(got,
      "SELECT CAST(g AS INT) AS g, CAST(min(CAST(y AS INT)) AS INT) AS best FROM pts GROUP BY g",
      "pts" -> pts)
  }
}
