package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.blocking.ExactKnnBlocker
import repro.data.{CleanProfile, ERSynth}
import repro.embed.Vectorizer
import repro.matching.{MatchMetrics, UniqueMappingClustering}

/** The paper's parameter- and learning-free ER path (§4.3, §5.2):
  * vectorize both sources with a language model, let every entity of the
  * smaller source query the other with exact k-NN, score each candidate
  * with sim = 1/(1+dist), and match with Unique Mapping Clustering.
  *
  * Every unsupervised number — Figures 3/4/8 and Tables 4, 5(a) and 5(b)
  * — is read from this one path: load a dataset once ([[withSources]]),
  * [[vectorize]] it (Table 4), [[run]] the k-NN from the smaller side, and
  * derive recall at k, the UMC δ-sweep and UMC at a fixed δ from the
  * neighbours.
  */
object Pipeline {

  /** The paper's similarity of two entities at Euclidean distance `dist`. */
  def sim(dist: Double): Double = 1.0 / (1.0 + dist)

  /** Blocking recall (pairs completeness): the share of ground-truth
    * pairs among the candidates; 1 when there is no ground truth.
    */
  def recall(candidates: Set[(Long, Long)], gt: Set[(Long, Long)]): Double =
    if (gt.isEmpty) 1.0 else gt.count(candidates.contains).toDouble / gt.size

  /** A dataset's two sources, cached, and its ground truth: generated
    * once and shared by every model and baseline run on it.
    */
  final case class Sources(profile: CleanProfile, s1: DataFrame, s2: DataFrame, gt: Set[(Long, Long)]) {
    def side1Smaller: Boolean = profile.v1 <= profile.v2

    /** The query (smaller) side and the index side, in that order. */
    def querySides[A](side1: A, side2: A): (A, A) = if (side1Smaller) (side1, side2) else (side2, side1)

    /** A (query, index) pair turned into (side-1 id, side-2 id). */
    def canonical(q: Long, i: Long): (Long, Long) = if (side1Smaller) (q, i) else (i, q)
  }

  /** Generate and cache `p`'s sources and ground truth, apply `f`, and
    * release the sources.
    */
  def withSources[A](spark: SparkSession, p: CleanProfile)(f: Sources => A): A = {
    import spark.implicits._
    val s1 = ERSynth.source(spark, p, 1).cache(); s1.count()
    val s2 = ERSynth.source(spark, p, 2).cache(); s2.count()
    try f(Sources(p, s1, s2, ERSynth.groundTruth(spark, p).as[(Long, Long)].collect().toSet))
    finally { s1.unpersist(); s2.unpersist() }
  }

  /** Both sides' (id, vec) rows, collected to the driver, and the
    * seconds the transform took (model Init excluded: Table 4 reports it
    * apart).
    */
  final case class Vectors(v1: Array[(Long, Array[Float])], v2: Array[(Long, Array[Float])], secs: Double)

  /** Vectorize both sides with noise tags "<name>#1" / "<name>#2" and
    * collect the vectors: exact k-NN runs on driver arrays.
    */
  def vectorize(src: Sources, model: String): Vectors = {
    val spark = src.s1.sparkSession
    import spark.implicits._
    Vectorizer.runtime(model)
    val t0 = System.nanoTime()
    def collect(side: DataFrame, n: Int) =
      Vectorizer.vectorize(side, model, s"${src.profile.name}#$n").as[(Long, Array[Float])].collect()
    val v1 = collect(src.s1, 1)
    val v2 = collect(src.s2, 2)
    Vectors(v1, v2, (System.nanoTime() - t0) / 1e9)
  }

  /** Precision, recall and F1 of a UMC result at threshold `delta`, and
    * the seconds scoring plus clustering took.
    */
  final case class Matching(delta: Double, precision: Double, recall: Double, f1: Double, secs: Double)

  /** One (model, dataset) run: the exact top-k neighbours (qid, nid, dist,
    * rank) of every entity of the smaller side.
    */
  final case class Run(src: Sources, vecSecs: Double, blockSecs: Double,
                       neighbours: Array[(Long, Long, Double, Int)]) {

    /** Candidate pairs at k ≤ the run's k, as (side-1 id, side-2 id). */
    def candidatePairs(k: Int): Set[(Long, Long)] =
      neighbours.iterator.filter(_._4 <= k).map { case (q, i, _, _) => src.canonical(q, i) }.toSet

    def recallAt(k: Int): Double = recall(candidatePairs(k), src.gt)

    private def smallSize: Long = math.min(src.profile.v1, src.profile.v2).toLong

    private def scored: Array[(Long, Long, Double)] = neighbours.map { case (q, i, d, _) => (q, i, sim(d)) }

    /** UMC at the F1-best δ of the paper's grid, from one δ-sweep (Figure 8). */
    def umcBest(): Matching = {
      val t0 = System.nanoTime()
      val sweep = UniqueMappingClustering.sweep(scored, smallSize).map { m =>
        val (a, b) = src.canonical(m.id1, m.id2)
        m.copy(id1 = a, id2 = b)
      }
      val secs = (System.nanoTime() - t0) / 1e9
      val (d, p, r, f1) = UniqueMappingClustering.bestThreshold(sweep, src.gt)
      Matching(d, p, r, f1, secs)
    }

    /** UMC at a fixed δ (Table 5(b)). */
    def umcAt(delta: Double): Matching = {
      val t0 = System.nanoTime()
      val predicted = UniqueMappingClustering.cluster(scored, delta, smallSize)
        .map(m => src.canonical(m.id1, m.id2)).toSet
      val secs = (System.nanoTime() - t0) / 1e9
      val (p, r, f1) = MatchMetrics.prf(predicted, src.gt)
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
    val nb = ExactKnnBlocker.search(src.s1.sparkSession, queries, index, k)
    Run(src, v.secs, (System.nanoTime() - t0) / 1e9, nb)
  }
}
