package repro.perf

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{DeepBlocker, ZeroER}
import repro.blocking.ExactKnnBlocker
import repro.data.{CleanProfile, DatasetProfiles, ERSynth}
import repro.embed.{ModelRegistry, Tokenizer, Vectorizer}
import repro.matching.UniqueMappingClustering
import repro.matching.UniqueMappingClustering.Match
import scala.util.{Failure, Random, Success, Try}

/** What one run of a workload returns. `wallS` and `cpuS` cover the
  * timed section only: first generator call to last result. The checks
  * run after it; each failed check fails the op it belongs to.
  */
final case class Outcome(
    wallS: Double,
    cpuS: Double,
    recallAt10: Double,
    f1: Double,
    attempted: Int,
    failures: Seq[String],
    inputs: Map[String, Any],
    quality: Map[String, Any]) {
  /** Ops with at least one failure; failures are prefixed "<op>: ". */
  def failed: Int = failures.map(_.takeWhile(_ != ':')).distinct.size
}

/** The benchmark's workloads. Every call into the program goes through a
  * public entry point of its modules: `ERSynth.source`/`groundTruth`,
  * `Vectorizer.runtime`/`vectorize`, `ExactKnnBlocker.topK`,
  * `UniqueMappingClustering.sweep`/`cluster`/`bestThreshold`,
  * `DeepBlocker.block` and `ZeroER.run`.
  */
object Workloads {

  /** `reps`: back-to-back repetitions of the timed section in one JVM;
    * only the first pays model Init and the JIT's warm-up.
    */
  sealed trait Workload { def name: String; def base: CleanProfile; def scale: Double; def reps: Int }

  /** Generate → vectorize → exact top-k → UMC δ-sweep, once per model. */
  final case class Clean(name: String, base: CleanProfile, scale: Double,
                         models: Seq[String], reps: Int = 1, k: Int = 64) extends Workload

  /** DeepBlocker's top-k blocking, then ZeroER's matching. */
  final case class Baselines(name: String, base: CleanProfile, scale: Double,
                             reps: Int = 1, k: Int = 10) extends Workload

  import DatasetProfiles._

  // block-large: the largest Clean-Clean dataset with the cheapest model,
  //   so exact k-NN dominates. embed-sweep: the longest text through one
  //   model per cost signature (FastText init, DistilBERT seqLen cut,
  //   24-layer S-GTR-T5, small S-MiniLM), so Init and transform dominate.
  // baselines: the same layers used differently (128-d encoded k-NN with
  //   re-rank, token-overlap joins, driver-side Levenshtein and EM).
  val all: Seq[Workload] = Seq(
    Clean("block-large", D10, 0.2, Seq("GE"), reps = 2),
    Clean("embed-sweep", D3, 0.3, Seq("FT", "DT", "S5", "SM")),
    Baselines("baselines", D4, 0.4))

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** ERSynth and Lexicon derive every value from the profile's name, so
    * the seed enters as a name suffix and nothing else changes.
    */
  def seeded(p: CleanProfile, seed: Long): CleanProfile = p.copy(name = s"${p.name}-s$seed")

  /** ZeroER's "did not terminate" budget, high enough never to fire. */
  val ZeroerBudgetSecs = 3600.0

  /** Queries per model checked against the brute-force oracle. */
  val OracleQueries = 64

  def run(spark: SparkSession, tr: Tracer, w: Workload, seed: Long): Outcome = w match {
    case c: Clean     => runClean(spark, tr, c, seed)
    case b: Baselines => runBaselines(spark, tr, b, seed)
  }

  private final class Timer {
    private val w0 = System.nanoTime(); private val c0 = Proc.cpuNanos
    def wallS: Double = (System.nanoTime() - w0) / 1e9
    def cpuS: Double = (Proc.cpuNanos - c0) / 1e9
  }

  private final case class Sources(s1: DataFrame, s2: DataFrame, n1: Long, n2: Long,
                                   gtDf: DataFrame, gt: Set[(Long, Long)])

  private def generate(spark: SparkSession, tr: Tracer, p: CleanProfile): Sources = {
    import spark.implicits._
    tr.span("data.gen_s") {
      val s1 = ERSynth.source(spark, p, 1).cache(); val n1 = s1.count()
      val s2 = ERSynth.source(spark, p, 2).cache(); val n2 = s2.count()
      val gtDf = ERSynth.groundTruth(spark, p)
      Sources(s1, s2, n1, n2, gtDf, gtDf.as[(Long, Long)].collect().toSet)
    }
  }

  private def checkSources(p: CleanProfile, s: Sources): Seq[String] = {
    val errs = Seq.newBuilder[String]
    if (s.n1 != p.v1 || s.n2 != p.v2) errs += s"source sizes ${s.n1} x ${s.n2}, expected ${p.v1} x ${p.v2}"
    if (s.gt != (0L until p.dups).map(i => (i, i)).toSet) errs += "ground truth is not the first dups ids"
    errs.result()
  }

  /** Blocking recall: share of ground-truth pairs among (side1, side2) candidates. */
  def recall(cands: Iterable[(Long, Long)], gt: Set[(Long, Long)]): Double =
    if (gt.isEmpty) 1.0 else { val c = cands.toSet; gt.count(c).toDouble / gt.size }

  private def inUnit(x: Double): Boolean = x >= 0.0 && x <= 1.0

  /** One model's pipeline; the DataFrames stay cached for the checks. */
  private final case class ModelRun(code: String, v1: DataFrame, v2: DataFrame,
                                    nb: Array[(Long, Long, Double, Int)],
                                    scored: Array[(Long, Long, Double)],
                                    sweep: Vector[Match], f1: Double, recalls: Seq[Double])

  private val RecallKs = Seq(1, 5, 10)

  private def runClean(spark: SparkSession, tr: Tracer, w: Clean, seed: Long): Outcome = {
    import spark.implicits._
    val p = seeded(w.base.scaled(w.scale), seed)
    val side1Smaller = p.v1 <= p.v2
    val small = math.min(p.v1, p.v2).toLong
    def canon(q: Long, n: Long): (Long, Long) = if (side1Smaller) (q, n) else (n, q)

    val timer = new Timer
    val src = generate(spark, tr, p)
    val runs = w.models.map { code =>
      code -> Try {
        tr.span("embed.init_s")(Vectorizer.runtime(code))
        val (v1, v2) = tr.span("embed.transform_s") {
          val v1 = Vectorizer.vectorize(src.s1, code, s"${p.name}#1").cache(); v1.count()
          val v2 = Vectorizer.vectorize(src.s2, code, s"${p.name}#2").cache(); v2.count()
          (v1, v2)
        }
        val (q, i) = if (side1Smaller) (v1, v2) else (v2, v1)
        val nb = tr.span("blocking.knn_s") {
          ExactKnnBlocker.topK(q, i, w.k)
            .select("qid", "nid", "dist", "rank").as[(Long, Long, Double, Int)].collect()
        }
        val scored = nb.map { case (qid, nid, d, _) => (qid, nid, 1.0 / (1.0 + d)) }
        val sweep = tr.span("matching.umc_s")(UniqueMappingClustering.sweep(scored, small))
        val f1 = tr.span("matching.threshold_s") {
          val c = sweep.map(m => if (side1Smaller) m else Match(m.id2, m.id1, m.sim))
          UniqueMappingClustering.bestThreshold(c, src.gt)._4
        }
        val recalls = RecallKs.map(k => recall(nb.iterator.filter(_._4 <= k).map(n => canon(n._1, n._2)).toSeq, src.gt))
        ModelRun(code, v1, v2, nb, scored, sweep, f1, recalls)
      }
    }
    val wallS = timer.wallS; val cpuS = timer.cpuS

    // ---- checks and counters, outside the timed section ----
    val sourceErrs = checkSources(p, src)
    val sentences = if (tr.enabled) src.s1.select("sentence").as[String].collect() ++
                                    src.s2.select("sentence").as[String].collect() else Array.empty[String]
    val tokenCounts = sentences.map(s => Tokenizer.tokenize(s).length)
    tr.count("data.entities", (src.n1 + src.n2).toDouble)

    val failures = runs.flatMap { case (code, r) =>
      val errs = r match {
        case Failure(e) => Seq(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}")
        case Success(m) =>
          val spec = ModelRegistry(code)
          val (q, i) = if (side1Smaller) (m.v1, m.v2) else (m.v2, m.v1)
          val qv = q.as[(Long, Array[Float])].collect()
          val iv = i.as[(Long, Array[Float])].collect()
          tr.count("embed.tokens", tokenCounts.map(n => if (spec.seqLen > 0) math.min(n, spec.seqLen) else n).sum.toDouble)
          tr.count("blocking.knn_pairs", qv.length.toDouble * iv.length)
          tr.count("blocking.knn_macs", qv.length.toDouble * iv.length * spec.dim)
          tr.count("blocking.knn_rows_out", m.nb.length.toDouble)
          tr.count("matching.umc_pairs_in", m.scored.length.toDouble)
          tr.count("matching.umc_matches", m.sweep.length.toDouble)
          val errs = sourceErrs ++ checkKnn(qv, iv, w.k, m.nb, seed) ++ checkUmc(m.scored, m.sweep, small) ++
            (if ((m.f1 +: m.recalls).forall(inUnit)) Nil else Seq(s"quality out of [0,1]: f1 ${m.f1}, recall ${m.recalls}"))
          m.v1.unpersist(); m.v2.unpersist()
          errs
      }
      errs.map(e => s"$code: $e")
    }
    src.s1.unpersist(); src.s2.unpersist()

    val ok = runs.collect { case (code, Success(m)) => m }
    def mean(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else xs.sum / xs.size
    Outcome(
      wallS, cpuS,
      recallAt10 = mean(ok.map(_.recalls(2))),
      f1 = mean(ok.map(_.f1)),
      attempted = runs.size,
      failures = failures,
      inputs = Map("dataset" -> p.name, "scale" -> w.scale, "v1" -> p.v1, "v2" -> p.v2,
                   "dups" -> p.dups, "k" -> w.k, "models" -> w.models),
      quality = ok.map(m => m.code -> Map(
        "f1" -> m.f1, "recall_at1" -> m.recalls(0), "recall_at5" -> m.recalls(1), "recall_at10" -> m.recalls(2)
      )).toMap)
  }

  /** Ranks run 1..k per query with non-decreasing distances, every query
    * is answered, and a seeded sample of queries matches the oracle.
    */
  private def checkKnn(qv: Array[(Long, Array[Float])], iv: Array[(Long, Array[Float])], k: Int,
                       nb: Array[(Long, Long, Double, Int)], seed: Long): Seq[String] = {
    val kk = math.min(k, iv.length)
    val byQ = nb.groupBy(_._1).map { case (qid, rows) => qid -> rows.sortBy(_._4) }
    val errs = Seq.newBuilder[String]
    if (byQ.keySet != qv.map(_._1).toSet) errs += s"${byQ.size} queries answered of ${qv.length}"
    val badRanks = byQ.count { case (_, rows) =>
      !rows.map(_._4).sameElements(1 to kk) || rows.iterator.sliding(2).exists {
        case Seq(a, b) => b._3 < a._3
        case _         => false
      }
    }
    if (badRanks > 0) errs += s"$badRanks queries whose ranks are not 1..$kk with non-decreasing distances"
    new Random(seed).shuffle(qv.toSeq).take(OracleQueries).foreach { case (qid, vec) =>
      val got = byQ.getOrElse(qid, Array.empty).map(r => (r._2, r._3)).toSeq
      KnnOracle.compare(vec, iv, k, got).take(3).foreach(e => errs += s"query $qid: $e")
    }
    errs.result()
  }

  /** UMC: one-to-one, drawn from the candidates at their similarity, and
    * `cluster` at δ = 0.5 is the δ = 0 sweep's prefix with sim ≥ 0.5.
    */
  private def checkUmc(scored: Array[(Long, Long, Double)], sweep: Vector[Match], small: Long): Seq[String] = {
    val errs = Seq.newBuilder[String]
    if (sweep.map(_.id1).distinct.size != sweep.size || sweep.map(_.id2).distinct.size != sweep.size)
      errs += "an id is matched twice"
    val cand = scored.map(s => (s._1, s._2) -> s._3).toMap
    if (!sweep.forall(m => cand.get((m.id1, m.id2)).contains(m.sim))) errs += "a match is not a candidate at its similarity"
    if (UniqueMappingClustering.cluster(scored, 0.5, small) != sweep.filter(_.sim >= 0.5))
      errs += "cluster(0.5) differs from the sweep filtered at sim >= 0.5"
    errs.result()
  }

  private def runBaselines(spark: SparkSession, tr: Tracer, w: Baselines, seed: Long): Outcome = {
    import spark.implicits._
    val p = seeded(w.base.scaled(w.scale), seed)
    val side1Smaller = p.v1 <= p.v2

    val timer = new Timer
    val src = generate(spark, tr, p)
    val (q, i) = if (side1Smaller) (src.s1, src.s2) else (src.s2, src.s1)
    val db = Try(tr.span("baselines.deepblocker_s") {
      val b = DeepBlocker.block(q, i, w.k, p.name, seed)
      (b, b.candidates.as[(Long, Long)].collect())
    })
    val ze = Try(tr.span("baselines.zeroer_s")(ZeroER.run(src.s1, src.s2, src.gtDf, ZeroerBudgetSecs)))
    val wallS = timer.wallS; val cpuS = timer.cpuS

    // ---- checks and counters, outside the timed section ----
    val sourceErrs = checkSources(p, src)
    tr.count("data.entities", (src.n1 + src.n2).toDouble)
    val canon = db.map(_._2.map { case (qid, nid) => if (side1Smaller) (qid, nid) else (nid, qid) }.toSeq)
    val dbErrs = db match {
      case Failure(e) => Seq(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}")
      case Success((b, cands)) =>
        b.candidates.unpersist()
        tr.count("baselines.deepblocker_candidates", cands.length.toDouble)
        val qIds = (0L until (if (side1Smaller) p.v1 else p.v2)).toSet
        val iIds = (0L until (if (side1Smaller) p.v2 else p.v1)).toSet
        val errs = Seq.newBuilder[String]
        if (!cands.forall { case (a, b) => qIds(a) && iIds(b) }) errs += "a candidate id is not in its source"
        if (cands.distinct.length != cands.length) errs += "a candidate pair is repeated"
        val over = cands.groupBy(_._1).count(_._2.length > w.k)
        if (over > 0) errs += s"$over queries with more than ${w.k} candidates"
        sourceErrs ++ errs.result()
    }
    val zeErrs = ze match {
      case Failure(e) => Seq(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}")
      case Success(None) => Seq("returned None (budget fired)")
      case Success(Some(r)) =>
        tr.count("baselines.zeroer_prep_s", r.prepSecs)
        tr.count("baselines.zeroer_match_s", r.matchSecs)
        sourceErrs ++ (if (Seq(r.precision, r.recall, r.f1).forall(inUnit)) Nil else Seq(s"quality out of [0,1]: $r"))
    }
    src.s1.unpersist(); src.s2.unpersist()

    val dbRecall = canon.map(recall(_, src.gt)).getOrElse(0.0)
    val zeF1 = ze.toOption.flatten.map(_.f1).getOrElse(0.0)
    Outcome(
      wallS, cpuS,
      recallAt10 = dbRecall,
      f1 = zeF1,
      attempted = 2,
      failures = dbErrs.map("DeepBlocker: " + _) ++ zeErrs.map("ZeroER: " + _),
      inputs = Map("dataset" -> p.name, "scale" -> w.scale, "v1" -> p.v1, "v2" -> p.v2,
                   "dups" -> p.dups, "k" -> w.k, "zeroer_budget_s" -> ZeroerBudgetSecs),
      quality = Map("DeepBlocker" -> Map("recall_at10" -> dbRecall),
                    "ZeroER" -> Map("f1" -> zeF1)))
  }
}
