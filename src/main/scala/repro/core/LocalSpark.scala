package repro.core

import scala.reflect.ClassTag
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

/** The one module that knows fan-outs run on Spark: it fans driver-held
  * rows out into tasks and broadcasts what the tasks share, on the running
  * session. It is the only place of the array path that launches Spark
  * jobs or broadcasts, and no producer, path or baseline takes a session or
  * a context.
  *
  * The first fan-out starts the session, so Tables 1-3, which fan nothing
  * out, run without one. The timed steps that can hold a JVM's first
  * fan-out (`Pipeline.vectorize`, `DeepBlocker.block`,
  * `SupervisedMatcher.run`) look up [[session]] before their clock starts,
  * so its start-up lands in no table cell.
  */
object LocalSpark {

  /** This thread's active session, else the default one, skipping a stopped one; only when none
    * is running, a new one with its master from `SPARK_MASTER` (default `local[*]`) and Spark's
    * defaults otherwise. erperf's DataFrame adapters thus run on erperf's own session.
    */
  def session: SparkSession =
    (SparkSession.getActiveSession ++ SparkSession.getDefaultSession).find(!_.sparkContext.isStopped).getOrElse(
      SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).appName("repro").getOrCreate())

  /** Stops the default session, if one is running. */
  def stop(): Unit = SparkSession.getDefaultSession.foreach(_.stop())

  /** Slices for a fan-out of `n` driver-held rows: about four per core,
    * at most one per row, at least one.
    */
  def querySlices(n: Int): Int = math.max(1, math.min(n, 4 * session.sparkContext.defaultParallelism))

  /** `rows` in [[querySlices]] partitions, in their order. */
  def slices[A: ClassTag](rows: Array[A]): RDD[A] =
    session.sparkContext.parallelize(rows.toSeq, querySlices(rows.length))

  /** `rows.map(f)`, computed in one job over the [[slices]] of `rows`, in their order: the
    * vectorize step, DeepBlocker's FastText pass and the supervised featurize.
    */
  def fanOut[A: ClassTag, B: ClassTag](rows: Array[A])(f: A => B): Array[B] =
    slices(rows).map(f).collect()

  /** `f(shared, slice)` for each of the [[slices]] of `rows`, in their order, one task a
    * slice in one job; `shared` is broadcast once and destroyed in a `finally` when the job
    * ends or fails. The exact k-NN shares its index, DeepBlocker's re-score its encoder.
    */
  def fanOut[S: ClassTag, A: ClassTag, B: ClassTag](shared: S, rows: Array[A])(f: (S, Array[A]) => B): Array[B] = {
    val b = session.sparkContext.broadcast(shared)
    try slices(rows).mapPartitions(it => Iterator(f(b.value, it.toArray))).collect()
    finally b.destroy()
  }
}
