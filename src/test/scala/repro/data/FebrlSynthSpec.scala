package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class FebrlSynthSpec extends SparkSpec {

  test("block structure: 43 duplicate pairs per 50 entities") {
    assert(FebrlSynth.PairsPerBlock == 43)
  }

  test("clusterOf: first 30 of a block are singletons") {
    (0 until 30).foreach { pos =>
      val (key, copy) = FebrlSynth.clusterOf(100L * 50 + pos)
      assert(key >= (1L << 60) && copy == 0, s"pos $pos")
    }
  }

  test("clusterOf: cluster sizes are 2,2,3,5,8") {
    val sizes = (0 until 50).map(pos => FebrlSynth.clusterOf(pos)._1)
      .groupBy(identity).values.map(_.size).filter(_ > 1).toSeq.sorted
    assert(sizes == Seq(2, 2, 3, 5, 8))
  }

  test("clusterOf: copy indices are dense within a cluster") {
    val copies = (42 until 50).map(pos => FebrlSynth.clusterOf(pos)._2)
    assert(copies == (0 until 8))
  }

  test("singleton keys are unique across blocks") {
    val keys = (0L until 500L).filter(i => (i % 50) < 30).map(FebrlSynth.clusterOf(_)._1)
    assert(keys.distinct.size == keys.size)
  }

  test("baseRecord has the 12 Febrl attributes") {
    assert(FebrlSynth.baseRecord(7L).length == 12)
  }

  test("baseRecord is deterministic") {
    assert(FebrlSynth.baseRecord(7L).toSeq == FebrlSynth.baseRecord(7L).toSeq)
  }

  test("postcode is 4 digits, ssid 7 digits") {
    val r = FebrlSynth.baseRecord(11L)
    assert(r(6).length == 4 && r(6).forall(_.isDigit))
    assert(r(11).length == 7 && r(11).forall(_.isDigit))
  }

  test("corrupt leaves copy 0 unchanged") {
    val r = FebrlSynth.baseRecord(3L)
    assert(FebrlSynth.corrupt(r, 3L, 0).toSeq == r.toSeq)
  }

  test("corrupt modifies later copies within Febrl error budgets") {
    val r = FebrlSynth.baseRecord(3L)
    val c = FebrlSynth.corrupt(r, 3L, 2)
    assert(c.toSeq != r.toSeq)
    val changed = r.indices.count(i => r(i) != c(i))
    assert(changed <= 10, s"$changed attrs changed (record budget is 10 mods)")
  }

  test("duplicates of the same cluster stay textually similar") {
    val a = FebrlSynth.renderEntity("febrl", 42L) // cluster E copy 0
    val b = FebrlSynth.renderEntity("febrl", 43L) // cluster E copy 1
    val t1 = a.sentence.split(" ").toSet
    val t2 = b.sentence.split(" ").toSet
    assert(t1.intersect(t2).size >= t1.size / 2)
  }

  test("rendered entities have n rows with 12 attrs") {
    val rows = (0L until 200L).map(FebrlSynth.renderEntity("febrl", _))
    assert(rows.map(_.id) == (0L until 200L))
    assert(rows.forall(_.attrs.size == 12))
  }

  test("duplicatePairs count matches the block formula") {
    val n = 500L
    assert(FebrlSynth.duplicatePairs(n).size == (n / 50) * FebrlSynth.PairsPerBlock)
  }

  test("duplicatePairs count matches the block formula at every Table 2(b) size") {
    FebrlSynth.TableSizes.foreach { case (name, n) =>
      assert(FebrlSynth.duplicatePairs(n).size == (n / 50) * FebrlSynth.PairsPerBlock, name)
    }
  }

  test("duplicatePairs respects the n boundary on a partial block") {
    val pairs = FebrlSynth.duplicatePairs(45) // cluster E truncated at 45
    val expected = 1 + 1 + 3 + 10 + (3 * 2 / 2) // E has only ids 42,43,44
    assert(pairs.size == expected)
  }

  test("duplicatePairs are ordered id1 < id2 and unique") {
    val rows = FebrlSynth.duplicatePairs(300).toArray
    assert(rows.forall { case (a, b) => a < b })
    assert(rows.distinct.length == rows.length)
  }

  test("40% of entities are clustered (duplicate rate of the paper)") {
    val n = 1000
    val clustered = (0 until n).count(i => FebrlSynth.clusterOf(i.toLong)._1 < (1L << 60))
    assert(clustered == (n * 2) / 5)
  }

  test("average sentence length is in the Febrl ballpark (~84 chars)") {
    import spark.implicits._
    val rows = (0L until 500L).map(FebrlSynth.renderEntity("febrl", _))
    val avgLen = rows.toDF().agg(avg(length(col("sentence")))).as[Double].head()
    assert(avgLen > 60 && avgLen < 110, s"avg $avgLen")
    assert(avgLen == rows.map(_.sentence.length.toLong).sum.toDouble / rows.size, "driver sum / count agrees")
  }

  test("Table 2(b) sizes are 10K..2M") {
    assert(FebrlSynth.TableSizes.map(_._2) ==
      Seq(10_000L, 50_000L, 100_000L, 200_000L, 300_000L, 1_000_000L, 2_000_000L))
  }

  test("oracle: pair counts agree with DuckDB") {
    import spark.implicits._
    val pairs = FebrlSynth.duplicatePairs(250).toSeq.toDF("id1", "id2")
    val agg = pairs.agg(count(lit(1)).cast("long").as("n"))
    Oracle.assertEquivalent(agg, "SELECT count(*) AS n FROM pairs", "pairs" -> pairs)
  }
}
