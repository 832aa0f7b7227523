package repro.core

import repro.blocking.ExactKnnBlocker
import repro.blocking.ExactKnnBlocker.Neighbours
import repro.data.{CleanProfile, ERSynth, EntityRow}
import repro.embed.Vectorizer
import repro.matching.{MatchMetrics, UniqueMappingClustering}
import repro.matching.UniqueMappingClustering.Match

/** The paper's parameter- and learning-free ER path (§4.3, §5.2):
  * vectorize both sources with a language model, let every entity of the
  * smaller source query the other with exact k-NN, score each candidate
  * with sim = 1/(1+dist), and match with Unique Mapping Clustering.
  *
  * Every unsupervised number — Figures 3/4/8 and Tables 4, 5(a) and 5(b)
  * — is read from this one path: render a dataset once ([[sources]]),
  * [[vectorize]] it (Table 4), [[run]] the k-NN from the smaller side, and
  * derive recall at k, the UMC δ-sweep and UMC at a fixed δ from the
  * neighbours, which a [[Run]] holds as the k-NN returns them.
  */
object Pipeline {

  /** The paper's similarity of two entities at Euclidean distance `dist`. */
  def sim(dist: Double): Double = 1.0 / (1.0 + dist)

  /** A dataset's two sources as driver arrays in id order, and its ground
    * truth: rendered once and shared by every model and baseline run on it.
    */
  final case class Sources(profile: CleanProfile, e1: Array[EntityRow], e2: Array[EntityRow], gt: Set[(Long, Long)]) {
    def side1Smaller: Boolean = profile.v1 <= profile.v2

    /** The query (smaller) side and the index side, in that order. */
    def querySides[A](side1: A, side2: A): (A, A) = if (side1Smaller) (side1, side2) else (side2, side1)

    /** A (query, index) pair turned into (side-1 id, side-2 id). */
    def canonical(q: Long, i: Long): (Long, Long) = if (side1Smaller) (q, i) else (i, q)
  }

  /** Render `p`'s sources; its ground truth pairs id i of side 1 with id
    * i of side 2 for every i below `dups`.
    */
  def sources(p: CleanProfile): Sources =
    Sources(p, ERSynth.entities(p, 1), ERSynth.entities(p, 2), (0L until p.dups).map(i => (i, i)).toSet)

  /** Both sides' (id, vec) rows and the seconds the transform took (model
    * Init excluded: Table 4 reports it apart).
    */
  final case class Vectors(v1: Array[(Long, Array[Float])], v2: Array[(Long, Array[Float])], secs: Double)

  /** Vectorize both sides in one fan-out, with noise tags "<name>#1" /
    * "<name>#2": exact k-NN runs on the driver arrays. The model's Init and
    * the start of the fan-outs' engine, if this is the first, are not timed.
    */
  def vectorize(src: Sources, model: String): Vectors = {
    Vectorizer.runtime(model)
    LocalSpark.session
    val t0 = System.nanoTime()
    val Seq(v1, v2) = Vectorizer.vectorize(model,
      Seq(src.e1 -> s"${src.profile.name}#1", src.e2 -> s"${src.profile.name}#2"))
    Vectors(v1, v2, (System.nanoTime() - t0) / 1e9)
  }

  /** Precision, recall and F1 of a UMC result at threshold `delta`, and
    * the seconds scoring plus clustering took.
    */
  final case class Matching(delta: Double, precision: Double, recall: Double, f1: Double, secs: Double)

  /** One (model, dataset) run: the exact top-k [[Neighbours]] of the smaller side. */
  final case class Run(src: Sources, vecSecs: Double, blockSecs: Double, neighbours: Neighbours) {

    /** Candidate pairs at k ≤ the run's k, as (side-1 id, side-2 id). */
    def candidatePairs(k: Int): Set[(Long, Long)] =
      neighbours.nids.indices.iterator.filter(neighbours.rank(_) <= k)
        .map(h => src.canonical(neighbours.qid(h), neighbours.nids(h))).toSet

    /** Pairs completeness at k: the share of the ground truth among the candidates (1 if none). */
    def recallAt(k: Int): Double = MatchMetrics.prf(candidatePairs(k), src.gt)._2

    /** UMC at δ over three columns (qid, nid, [[sim]] of the distance), its matches as
      * (side-1 id, side-2 id), and the seconds scoring plus clustering took.
      */
    private def umc(delta: Double): (Vector[Match], Double) = {
      val t0 = System.nanoTime()
      val ms = UniqueMappingClustering.cluster(neighbours.hitQids, neighbours.nids, neighbours.dists.map(sim), delta,
        math.min(src.profile.v1, src.profile.v2).toLong)
      (ms.map { m => val (a, b) = src.canonical(m.id1, m.id2); Match(a, b, m.sim) }, (System.nanoTime() - t0) / 1e9)
    }

    /** UMC at the F1-best δ of the paper's grid, from one δ-sweep (Figure 8). */
    def umcBest(): Matching = {
      val (sweep, secs) = umc(0.0)
      val (d, p, r, f1) = UniqueMappingClustering.bestThreshold(sweep, src.gt)
      Matching(d, p, r, f1, secs)
    }

    /** UMC at a fixed δ (Table 5(b)). */
    def umcAt(delta: Double): Matching = {
      val (ms, secs) = umc(delta)
      val (p, r, f1) = MatchMetrics.prf(ms.map(m => (m.id1, m.id2)).toSet, src.gt)
      Matching(delta, p, r, f1, secs)
    }
  }

  /** Vectorize `src` with `model` and find every smaller-side entity's k
    * nearest entities of the other side.
    */
  def run(src: Sources, model: String, k: Int): Run = {
    val v = vectorize(src, model)
    val (queries, index) = src.querySides(v.v1, v.v2)
    val t0 = System.nanoTime()
    val nb = ExactKnnBlocker.search(queries, index, k)
    Run(src, v.secs, (System.nanoTime() - t0) / 1e9, nb)
  }
}
