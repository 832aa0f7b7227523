package repro.baselines

import repro.SparkSpec
import repro.core.Pipeline
import repro.data.{DatasetProfiles, ERSynth, EntityRow}
import repro.matching.MatchMetrics
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
    val src = Pipeline.sources(DatasetProfiles("D4").scaled(0.05))
    val res = DeepBlocker.block(src.e2, src.e1, k = 5, tag = "dbtest") // smaller side queries
    val perQuery = res.candidates.groupBy(_._1).values.map(_.length)
    assert(perQuery.forall(_ <= 5))
    // gt is (side1, side2); candidates are (query=side2, side1) here
    val canon = res.candidates.map(_.swap).toSet
    val rec = MatchMetrics.prf(canon, src.gt)._2
    assert(rec > 0.8, s"DeepBlocker recall on easy D4: $rec")
    assert(res.secs > 0)
  }

  private lazy val d1 = Pipeline.sources(DatasetProfiles("D1").scaled(0.2))

  test("block is stochastic across seeds but stable per seed") {
    def run(seed: Long) = DeepBlocker.block(d1.e1, d1.e2, k = 2, tag = "dbseed", seed = seed).candidates.toSet
    val a = run(17L); val b = run(17L); val c = run(99L)
    assert(a == b, "same seed must reproduce")
    assert(a != c, "different seeds should differ somewhere")
  }

  test("block does not depend on the order of either input") {
    def run(q: Array[EntityRow], i: Array[EntityRow]) =
      DeepBlocker.block(q, i, k = 2, tag = "dborder").candidates.toSet
    val want = run(d1.e1, d1.e2)
    val shuffle = new scala.util.Random(3)
    assert(run(d1.e1.reverse, d1.e2.reverse) == want)
    assert(run(shuffle.shuffle(d1.e1.toSeq).toArray, shuffle.shuffle(d1.e2.toSeq).toArray) == want)
  }

  test("the DataFrame form returns exactly what the array form returns (D4 x0.05)") {
    import spark.implicits._
    val p = DatasetProfiles("D4").scaled(0.05)
    val src = Pipeline.sources(p)
    val arrays = DeepBlocker.block(src.e2, src.e1, 5, "dbadapter", 17L).candidates
    val frame = DeepBlocker.block(ERSynth.source(spark, p, 2), ERSynth.source(spark, p, 1), 5, "dbadapter", 17L)
    assert(frame.candidates.columns.toSeq == Seq("id1", "id2"))
    assert(frame.candidates.as[(Long, Long)].collect().sameElements(arrays))
  }
}
