package repro.core

import repro.SparkSpec
import repro.blocking.ExactKnnBlocker.Neighbours
import repro.data.{DatasetProfiles, ERSynth}

class PipelineSpec extends SparkSpec {

  private def run(ds: String, scale: Double, model: String, k: Int): Pipeline.Run =
    Pipeline.run(Pipeline.sources(DatasetProfiles(ds).scaled(scale)), model, k)

  private lazy val d5 = run("D5", 0.02, "S5", 16)

  test("end-to-end S-GTR-T5 pipeline solves an easy dataset") {
    val r = run("D4", 0.05, "S5", 10)
    val m = r.umcAt(0.5)
    assert(m.f1 > 0.9, s"F1 ${m.f1}")
    assert(r.vecSecs + r.blockSecs > 0 && m.secs >= 0)
    assert(r.neighbours.nids.nonEmpty)
  }

  test("pipeline respects k (candidates bounded by k * |smaller|)") {
    val p = DatasetProfiles("D1").scaled(0.2)
    val r = run("D1", 0.2, "SM", 3)
    assert(r.neighbours.nids.length <= 3L * math.min(p.v1, p.v2))
  }

  test("higher delta cannot increase recall") {
    val r = run("D5", 0.03, "SM", 10)
    assert(r.umcAt(0.7).recall <= r.umcAt(0.3).recall + 1e-9)
  }

  test("S-GTR-T5 beats a collapsed model end-to-end") {
    val s5 = run("D5", 0.03, "S5", 10).umcAt(0.5)
    val xt = run("D5", 0.03, "XT", 10).umcAt(0.5)
    assert(s5.f1 > xt.f1, s"S5=${s5.f1} XT=${xt.f1}")
  }

  test("query direction: smaller side queries the larger one") {
    val p = DatasetProfiles("D9").scaled(0.01) // v1 << v2
    val r = run("D9", 0.01, "SM", 5)
    assert(r.neighbours.nids.length == 5L * p.v1)
    assert(r.neighbours.hitQids.forall(_ < p.v1))
  }

  test("run returns neighbours with ranks up to k") {
    val ranks = d5.neighbours.nids.indices.map(d5.neighbours.rank)
    assert(ranks.nonEmpty)
    assert(ranks.forall(_ >= 1))
    assert(ranks.forall(_ <= 16))
    assert(d5.neighbours.k == 16 && d5.neighbours.nids.length == 16 * d5.neighbours.qids.length)
  }

  test("recall is monotone in k") {
    val r1 = d5.recallAt(1); val r5 = d5.recallAt(5); val r10 = d5.recallAt(10)
    assert(r1 <= r5 && r5 <= r10)
    assert(r10 > 0.5, s"recall@10 $r10 on an SBERT model")
  }

  test("candidatePairs canonicalizes to (side1, side2)") {
    val p = DatasetProfiles("D5").scaled(0.02)
    val cands = d5.candidatePairs(5)
    assert(cands.forall { case (a, b) => a < p.v1 && b < p.v2 })
  }

  test("candidatePairs derives smaller k from a larger run") {
    val small = math.min(d5.src.profile.v1, d5.src.profile.v2)
    assert(d5.candidatePairs(1).size == small)
    assert(d5.candidatePairs(3).size == small * 3)
  }

  test("umcBest returns a grid threshold and consistent metrics") {
    val m = d5.umcBest()
    assert(m.delta >= 0.05 && m.delta <= 0.95)
    assert(m.precision >= 0 && m.precision <= 1 && m.recall >= 0 && m.recall <= 1)
    assert(m.f1 <= 1.0 && m.f1 >= 0.0)
    assert(m.secs >= 0)
    if (m.precision + m.recall > 0)
      assert(math.abs(m.f1 - 2 * m.precision * m.recall / (m.precision + m.recall)) < 1e-6)
  }

  test("vectorization time is measured positive") {
    val secs = Pipeline.vectorize(Pipeline.sources(DatasetProfiles("D1").scaled(0.1)), "GE").secs
    assert(secs > 0)
  }

  test("gt is the scaled profile's duplicate set") {
    val p = DatasetProfiles("D5").scaled(0.02)
    assert(d5.src.gt.size == p.dups)
    assert(d5.src.gt == ERSynth.groundTruth(spark, p).collect().map(r => (r.getLong(0), r.getLong(1))).toSet)
  }

  test("sources are the rendered entities of each side, in id order") {
    val p = DatasetProfiles("D5").scaled(0.02)
    assert(d5.src.e1.toSeq == (0L until p.v1).map(ERSynth.renderEntity(p, 1, _)))
    assert(d5.src.e2.toSeq == (0L until p.v2).map(ERSynth.renderEntity(p, 2, _)))
  }

  test("sim is 1/(1+dist): 1 at distance 0, decreasing, bounded in (0, 1]") {
    assert(Pipeline.sim(0.0) == 1.0)
    assert(Pipeline.sim(1.0) == 0.5)
    assert(Pipeline.sim(3.0) == 0.25)
    assert(Pipeline.sim(1e9) > 0.0)
  }

  /** A run of hand-made neighbours on D1, whose side 1 is the query side. */
  private def handRun(gt: Set[(Long, Long)], neighbours: Neighbours): Pipeline.Run =
    Pipeline.Run(Pipeline.Sources(DatasetProfiles("D1"), Array.empty, Array.empty, gt), 0.0, 0.0, neighbours)

  test("recall on exact candidates") {
    val r = handRun(Set((0L, 100L), (1L, 104L)),
      Neighbours(Array(0L, 1L), 2, Array(100L, 101L, 103L, 104L), Array(0.1, 0.15, 0.2, 0.3)))
    assert(r.recallAt(1) == 0.5)
    assert(r.recallAt(2) == 1.0)
  }

  test("recall of empty ground truth is 1") {
    assert(handRun(Set.empty, Neighbours(Array(0L), 1, Array(100L), Array(0.1))).recallAt(1) == 1.0)
  }
}
