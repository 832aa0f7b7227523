package repro.blocking

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Pipeline
import repro.data.FebrlSynth
import repro.embed.Vectorizer
import repro.util.Det

class LshAnnBlockerSpec extends SparkSpec {

  test("hyperplanes are deterministic and of the right shape") {
    val h1 = LshAnnBlocker.hyperplanes(16, 4, 6, 9L)
    val h2 = LshAnnBlocker.hyperplanes(16, 4, 6, 9L)
    assert(h1.length == 24 && h1.forall(_.length == 16))
    assert(h1.zip(h2).forall { case (a, b) => a.toSeq == b.toSeq })
  }

  test("signatures pack the table index in high bits") {
    val planes = LshAnnBlocker.hyperplanes(8, 3, 5, 1L)
    val sig = LshAnnBlocker.signatures(Det.uniformVec(2L, 8), planes, 3, 5)
    assert(sig.length == 3)
    assert(sig.zipWithIndex.forall { case (s, t) => (s >> 32) == t })
  }

  test("identical vectors share every signature") {
    val planes = LshAnnBlocker.hyperplanes(8, 3, 5, 1L)
    val v = Det.uniformVec(3L, 8)
    assert(LshAnnBlocker.signatures(v, planes, 3, 5).toSeq ==
           LshAnnBlocker.signatures(v.clone(), planes, 3, 5).toSeq)
  }

  test("near vectors collide more than far vectors") {
    val planes = LshAnnBlocker.hyperplanes(32, 8, 8, 1L)
    val base = Det.normalize(Det.uniformVec(10L, 32))
    val near = Det.normalize(base.zipWithIndex.map { case (x, i) =>
      x + 0.05f * Det.uniformVec(11L, 32)(i) })
    val far = Det.normalize(Det.uniformVec(12L, 32))
    def collisions(a: Array[Float], b: Array[Float]) =
      LshAnnBlocker.signatures(a, planes, 8, 8).toSet
        .intersect(LshAnnBlocker.signatures(b, planes, 8, 8).toSet).size
    assert(collisions(base, near) > collisions(base, far))
  }

  test("bad parameters rejected") {
    import spark.implicits._
    val df = Seq((1L, Array(1f, 0f))).toDF("id", "vec")
    intercept[IllegalArgumentException](LshAnnBlocker.topK(df, 0))
    intercept[IllegalArgumentException](LshAnnBlocker.topK(df, 1, tables = 0))
    intercept[IllegalArgumentException](LshAnnBlocker.topK(df, 1, bits = 31))
  }

  test("topK excludes self-pairs and respects k") {
    val ents = FebrlSynth.entities(spark, 120)
    val vecs = Vectorizer.vectorize(ents, "SM", "lsh-test")
    val top = LshAnnBlocker.topK(vecs, k = 3, tables = 6, bits = 6)
    import spark.implicits._
    val rows = top.select("qid", "nid", "rank").as[(Long, Long, Int)].collect()
    assert(rows.forall { case (q, n, _) => q != n })
    assert(rows.groupBy(_._1).values.forall(_.size <= 3))
    assert(rows.forall(_._3 <= 3))
  }

  test("ANN finds most true duplicate pairs on Febrl data") {
    val n = 300L
    val ents = FebrlSynth.entities(spark, n)
    val vecs = Vectorizer.vectorize(ents, "S5", "lsh-febrl").cache()
    val top = LshAnnBlocker.topK(vecs, k = 10, tables = 16, bits = 5)
    val cands = LshAnnBlocker.undirectedCandidates(top)
    val gt = FebrlSynth.duplicatePairs(spark, n)
    import spark.implicits._
    def pairs(df: org.apache.spark.sql.DataFrame) = df.select("id1", "id2").as[(Long, Long)].collect().toSet
    val rec = Pipeline.recall(pairs(cands), pairs(gt))
    assert(rec > 0.5, s"ANN recall $rec")
    vecs.unpersist()
  }

  test("undirectedCandidates orders and dedupes") {
    import spark.implicits._
    val top = Seq((5L, 2L, 0.1, 1), (2L, 5L, 0.1, 1), (1L, 9L, 0.2, 2))
      .toDF("qid", "nid", "dist", "rank")
    val u = LshAnnBlocker.undirectedCandidates(top)
      .as[(Long, Long)].collect().toSet
    assert(u == Set((2L, 5L), (1L, 9L)))
  }

  test("more tables cannot reduce candidate coverage") {
    val ents = FebrlSynth.entities(spark, 150)
    val vecs = Vectorizer.vectorize(ents, "SM", "lsh-cov").cache()
    val few  = LshAnnBlocker.undirectedCandidates(LshAnnBlocker.topK(vecs, 5, tables = 2, bits = 8)).count()
    val many = LshAnnBlocker.undirectedCandidates(LshAnnBlocker.topK(vecs, 5, tables = 8, bits = 8)).count()
    assert(many >= few)
    vecs.unpersist()
  }
}
