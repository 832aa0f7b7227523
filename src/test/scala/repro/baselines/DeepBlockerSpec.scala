package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.desc
import repro.SparkSpec
import repro.core.Pipeline
import repro.data.{DatasetProfiles, ERSynth}
import repro.util.Det

class DeepBlockerSpec extends SparkSpec {

  test("autoencoder reduces reconstruction error over training") {
    val sample = Array.tabulate(200)(i => Det.uniformVec(Det.seed(1L, i.toLong), 300))
    val w0 = DeepBlocker.trainAutoEncoder(sample, seed = 3L, epochs = 0)
    val w5 = DeepBlocker.trainAutoEncoder(sample, seed = 3L, epochs = 5)
    def recErr(w: Array[Float]): Double = {
      var err = 0.0
      sample.take(50).foreach { x =>
        val z = new Array[Float](DeepBlocker.EncDim)
        DeepBlocker.encodeInto(w, x, z)
        var r = 0
        while (r < 300) {
          var acc = 0.0f; var c = 0
          while (c < DeepBlocker.EncDim) { acc += w(r * DeepBlocker.EncDim + c) * z(c); c += 1 }
          val d = acc - x(r); err += d * d; r += 1
        }
      }
      err
    }
    assert(recErr(w5) < recErr(w0), "training must reduce reconstruction error")
  }

  test("encode is deterministic and unit-normalized") {
    val sample = Array.tabulate(50)(i => Det.uniformVec(Det.seed(1L, i.toLong), 300))
    val w = DeepBlocker.trainAutoEncoder(sample, seed = 3L, epochs = 2)
    val z1 = DeepBlocker.encode(w, sample(0))
    val z2 = DeepBlocker.encode(w, sample(0))
    assert(z1.toSeq == z2.toSeq)
    assert(math.abs(Det.norm(z1) - 1.0) < 1e-4)
    assert(z1.length == DeepBlocker.EncDim)
  }

  test("encoded space preserves neighbourhood structure approximately") {
    val base = Det.uniformVec(7L, 300)
    val near = base.zipWithIndex.map { case (x, i) => x + 0.1f * Det.uniformVec(8L, 300)(i) }
    val far  = Det.uniformVec(9L, 300)
    val sample = Array.tabulate(100)(i => Det.uniformVec(Det.seed(4L, i.toLong), 300))
    val w = DeepBlocker.trainAutoEncoder(sample, seed = 3L)
    val eb = DeepBlocker.encode(w, base)
    assert(Det.l2(eb, DeepBlocker.encode(w, near)) < Det.l2(eb, DeepBlocker.encode(w, far)))
  }

  test("block produces k candidates per query with decent recall on easy data") {
    val p = DatasetProfiles("D4").scaled(0.05)
    val s1 = ERSynth.source(spark, p, 1)
    val s2 = ERSynth.source(spark, p, 2)
    import spark.implicits._
    val gt = ERSynth.groundTruth(spark, p).as[(Long, Long)].collect().toSet
    val res = DeepBlocker.block(s2, s1, k = 5, tag = "dbtest") // smaller side queries
    val perQuery = res.candidates.groupBy("id1").count().collect().map(_.getLong(1))
    assert(perQuery.forall(_ <= 5))
    // gt is (side1, side2); candidates are (query=side2, side1) here
    val canon = res.candidates.as[(Long, Long)].collect().map(_.swap).toSet
    val rec = Pipeline.recall(canon, gt)
    assert(rec > 0.8, s"DeepBlocker recall on easy D4: $rec")
    assert(res.secs > 0)
  }

  test("block is stochastic across seeds but stable per seed") {
    val p = DatasetProfiles("D1").scaled(0.2)
    val s1 = ERSynth.source(spark, p, 1)
    val s2 = ERSynth.source(spark, p, 2)
    def run(seed: Long) =
      DeepBlocker.block(s1, s2, k = 2, tag = "dbseed", seed = seed)
        .candidates.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val a = run(17L); val b = run(17L); val c = run(99L)
    assert(a == b, "same seed must reproduce")
    assert(a != c, "different seeds should differ somewhere")
  }

  test("block does not depend on the order or partitioning of either input") {
    val p = DatasetProfiles("D1").scaled(0.2)
    val s1 = ERSynth.source(spark, p, 1)
    val s2 = ERSynth.source(spark, p, 2)
    def run(q: DataFrame, i: DataFrame) =
      DeepBlocker.block(q, i, k = 2, tag = "dborder").candidates.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val want = run(s1, s2)
    assert(run(s1.repartition(3), s2.repartition(5)) == want)
    assert(run(s1.orderBy(desc("id")), s2.orderBy(desc("id"))) == want)
  }
}
