package repro.perf

import org.apache.spark.sql.SparkSession
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization
import repro.blocking.ExactKnnBlocker
import repro.data.{DatasetProfiles, ERSynth}
import repro.util.Det

/** One pass of one workload in this JVM. Prints one line starting with
  * [[Main.Tag]]: a JSON record of set-up times, the timed section, the
  * checks' failures, the environment and, when traced, the per-layer
  * metrics. `erperf/run.py` builds this, forks it and turns its records
  * into the benchmark's result.
  *
  * Usage: Main --workload <name> --seed <n> --trace <0|1> --cores <n>
  *             --local-dir <dir>
  */
object Main {

  val Tag = "ERPERF "

  /** Set-ups per pass: the first from `main` entry, then session restarts. */
  val SetUps = 5

  def main(args: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = opt.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = Workloads(need("workload"))
    val seed = need("seed").toLong
    val traced = need("trace") == "1"
    val cores = need("cores").toInt

    // Set up SetUps times and keep the last session: the first set-up
    // also pays class loading, the later ones only session start.
    var spark: SparkSession = null
    val setupS = (0 until SetUps).map { i =>
      val s0 = if (i == 0) t0 else System.nanoTime()
      if (spark != null) spark.stop()
      spark = session(cores, need("local-dir"))
      warmUp(spark)
      (System.nanoTime() - s0) / 1e9
    }

    val tr = new Tracer(spark, traced)
    val outs = (1 to workload.reps).map(_ => Workloads.run(spark, tr, workload, seed))
    val out = outs.head
    val wallS = outs.map(_.wallS).sum
    val repeatable = outs.map(o => (o.recallAt10, o.f1)).distinct.size == 1
    val failures = outs.flatMap(_.failures) ++
      (if (repeatable) Nil else Seq("quality: recall_at10/f1 differ between repetitions"))
    val layers = if (traced) perLayer(tr.finish(), wallS, cores, setupS.head) else Map.empty[String, Double]

    val rec = Map(
      "workload" -> workload.name, "seed" -> seed, "trace" -> traced, "reps" -> outs.size,
      "setup_s" -> setupS, "rep_wall_s" -> outs.map(_.wallS),
      "wall_s" -> wallS / outs.size, "cpu_s" -> outs.map(_.cpuS).sum / outs.size, "peak_rss_mb" -> Proc.peakRssMb,
      "recall_at10" -> out.recallAt10, "f1" -> out.f1,
      "attempted" -> outs.map(_.attempted).sum, "failed" -> (outs.map(_.failed).sum + (if (repeatable) 0 else 1)),
      "failures" -> failures,
      "inputs" -> out.inputs, "quality" -> out.quality, "per_layer" -> layers,
      "env" -> Map(
        "cores" -> cores, "master" -> spark.sparkContext.master,
        "default_parallelism" -> spark.sparkContext.defaultParallelism,
        "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1024.0 * 1024.0),
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
        "spark" -> spark.version, "scala" -> scala.util.Properties.versionNumberString,
        "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions")))
    println(Tag + Serialization.write(rec)(DefaultFormats))
    spark.stop()
  }

  /** The session the jobs use, pinned to `local[cores]`, writing only under `localDir`. */
  def session(cores: Int, localDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]").appName("erperf")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Exercises Spark, generation and k-NN on small inputs. It creates no
    * model runtime, so every model's Init is paid inside the timed section.
    * The k-NN input is just large enough (over a thousand index rows of
    * 300-d) for the JIT to compile the k-NN kernel: on the benchmark's
    * reduced scales a cold kernel costs several seconds that vary from JVM
    * to JVM, where at the paper's scale it would be noise.
    */
  def warmUp(spark: SparkSession): Unit = {
    import spark.implicits._
    val p = DatasetProfiles.D10.scaled(0.02).copy(name = "warm-up")
    ERSynth.source(spark, p, 1).count()
    ERSynth.groundTruth(spark, p).collect()
    def vecs(n: Int, salt: Long) = (0 until n).map(i => (i.toLong, Det.uniformVec(salt + i, 300))).toDF("id", "vec")
    ExactKnnBlocker.topK(vecs(256, 0L), vecs(1280, 1L << 20), 64).collect()
  }

  /** Per-layer metrics of a traced pass, summed over its repetitions
    * (`wallS` is their summed wall time). Every name is always present;
    * a layer the workload does not run reads 0.
    */
  def perLayer(s: Tracer.Summary, wallS: Double, cores: Int, firstSetupS: Double): Map[String, Double] = {
    val none = Tracer.Totals(0, 0, 0, 0, 0, 0)
    def span(m: String) = s.byMetric.getOrElse(m, none)
    def wall(m: String) = span(m).wallS
    def c(m: String) = s.counters.getOrElse(m, 0.0)
    def ratio(a: Double, b: Double) = if (b > 0) a / b else 0.0
    val knn = span("blocking.knn_s")
    Map(
      "setup.first_s" -> firstSetupS,
      "data.gen_s" -> wall("data.gen_s"),
      "data.entities" -> c("data.entities"),
      "embed.init_s" -> wall("embed.init_s"),
      "embed.transform_s" -> wall("embed.transform_s"),
      "embed.tokens" -> c("embed.tokens"),
      "embed.tokens_per_s" -> ratio(c("embed.tokens"), wall("embed.transform_s")),
      "blocking.knn_s" -> knn.wallS,
      "blocking.knn_pairs" -> c("blocking.knn_pairs"),
      "blocking.knn_gmac_per_s" -> ratio(c("blocking.knn_macs") / 1e9, knn.wallS),
      "blocking.knn_rows_out" -> c("blocking.knn_rows_out"),
      "blocking.knn_core_util" -> ratio(knn.runS, knn.wallS * cores),
      "blocking.knn_shuffle_bytes" -> knn.shuffleBytes.toDouble,
      "matching.umc_s" -> wall("matching.umc_s"),
      "matching.umc_pairs_in" -> c("matching.umc_pairs_in"),
      "matching.umc_matches" -> c("matching.umc_matches"),
      "matching.threshold_s" -> wall("matching.threshold_s"),
      "baselines.deepblocker_s" -> wall("baselines.deepblocker_s"),
      "baselines.deepblocker_candidates" -> c("baselines.deepblocker_candidates"),
      "baselines.deepblocker_shuffle_bytes" -> span("baselines.deepblocker_s").shuffleBytes.toDouble,
      "baselines.zeroer_s" -> wall("baselines.zeroer_s"),
      "baselines.zeroer_prep_s" -> c("baselines.zeroer_prep_s"),
      "baselines.zeroer_match_s" -> c("baselines.zeroer_match_s"),
      "baselines.zeroer_shuffle_bytes" -> span("baselines.zeroer_s").shuffleBytes.toDouble,
      "trace.span_coverage" -> ratio(s.spanWallS, wallS),
    ) ++ Layers.flatMap { l =>
      val t = s.byLayer.getOrElse(l, none)
      Seq(s"$l.cpu_s" -> t.cpuS, s"$l.gc_s" -> t.gcS, s"$l.spark_tasks" -> t.tasks.toDouble)
    }
  }

  val Layers = Seq("data", "embed", "blocking", "matching", "baselines")
}
