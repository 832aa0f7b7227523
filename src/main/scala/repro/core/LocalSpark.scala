package repro.core

import scala.reflect.ClassTag
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

/** The one module that knows fan-outs run on Spark: it fans driver-held
  * rows out into tasks and broadcasts what the tasks share, on the running
  * session.
  */
object LocalSpark {

  /** This thread's active session, else the default one, skipping a stopped one; only when none
    * is running, a new one with its master from `SPARK_MASTER` (default `local[*]`).
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

  /** `rows.map(f)`, computed in one job over the [[slices]] of `rows`, in their order. */
  def fanOut[A: ClassTag, B: ClassTag](rows: Array[A])(f: A => B): Array[B] =
    slices(rows).map(f).collect()

  /** `f(shared, slice)` for each of the [[slices]] of `rows`, in their order, one task a
    * slice in one job; `shared` is broadcast once and destroyed when the job ends or fails.
    */
  def fanOut[S: ClassTag, A: ClassTag, B: ClassTag](shared: S, rows: Array[A])(f: (S, Array[A]) => B): Array[B] = {
    val b = session.sparkContext.broadcast(shared)
    try slices(rows).mapPartitions(it => Iterator(f(b.value, it.toArray))).collect()
    finally b.destroy()
  }
}
