package repro.perf

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.io.Source
import scala.jdk.CollectionConverters._

/** Readings of the whole JVM. In local mode the executors are threads of
  * the driver JVM, so these cover driver and executor work alike.
  */
object Proc {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def cpuNanos: Long = os.getProcessCpuTime

  def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Peak resident set (VmHWM) in MiB; NaN where /proc is unavailable. */
  def peakRssMb: Double = {
    val f = new java.io.File("/proc/self/status")
    if (!f.exists()) return Double.NaN
    val src = Source.fromFile(f)
    try src.getLines().collectFirst {
      case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024.0
    }.getOrElse(Double.NaN)
    finally src.close()
  }
}

/** Spark task metrics summed per job group. The benchmark sets one job
  * group per span, so each stage is attributed to the span that ran it.
  */
final class TaskMetricsByGroup extends SparkListener {

  final class Sums {
    var tasks = 0L; var runMs = 0L; var shuffleBytes = 0L
  }

  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val sums = mutable.Map.empty[String, Sums]

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    stageGroup.put(e.stageInfo.stageId, g)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val s = sums.getOrElseUpdate(stageGroup.getOrDefault(e.stageId, ""), new Sums)
    s.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      s.runMs += m.executorRunTime
      s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def apply(group: String): Sums = synchronized(sums.getOrElse(group, new Sums))
}

/** Spans taken from outside the program, around the calls the benchmark
  * makes into each module. A span's metric name is `<layer>.<what>`.
  * Disabled, a span only runs its body: no clock reads, no listener, no
  * job groups.
  */
final class Tracer(spark: SparkSession, val enabled: Boolean) {
  import Tracer._

  final case class Span(metric: String, group: String, wallNs: Long, cpuNs: Long, gcMs: Long) {
    def layer: String = metric.takeWhile(_ != '.')
  }

  private val listener = new TaskMetricsByGroup
  if (enabled) spark.sparkContext.addSparkListener(listener)

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.LinkedHashMap.empty[String, Double]

  def span[T](metric: String)(body: => T): T =
    if (!enabled) body
    else {
      val group = s"$metric#${spans.size}"
      val sc = spark.sparkContext
      sc.setJobGroup(group, metric, interruptOnCancel = false)
      val w0 = System.nanoTime(); val c0 = Proc.cpuNanos; val g0 = Proc.gcMillis
      try body
      finally {
        spans += Span(metric, group, System.nanoTime() - w0, Proc.cpuNanos - c0, Proc.gcMillis - g0)
        sc.clearJobGroup()
      }
    }

  /** Adds `v` to a work counter; counted outside spans. */
  def count(metric: String, v: Double): Unit =
    if (enabled) counters(metric) = counters.getOrElse(metric, 0.0) + v

  /** Totals per span metric and per layer, after draining the listener bus. */
  def finish(): Summary = {
    ListenerBusDrain(spark.sparkContext)
    def total(ss: Seq[Span]): Totals = {
      val m = ss.map(s => listener(s.group))
      Totals(ss.map(_.wallNs).sum / 1e9, ss.map(_.cpuNs).sum / 1e9, ss.map(_.gcMs).sum / 1e3,
             m.map(_.tasks).sum, m.map(_.runMs).sum / 1e3, m.map(_.shuffleBytes).sum)
    }
    val byMetric = spans.toSeq.groupBy(_.metric).map { case (k, ss) => k -> total(ss) }
    val byLayer  = spans.toSeq.groupBy(_.layer).map { case (k, ss) => k -> total(ss) }
    Summary(byMetric, byLayer, counters.toMap)
  }
}

object Tracer {

  /** Totals of one metric's or one layer's spans. CPU and GC time are
    * process-wide deltas; tasks, executor run time and shuffle bytes come
    * from the Spark jobs the spans started.
    */
  final case class Totals(wallS: Double, cpuS: Double, gcS: Double,
                          tasks: Long, runS: Double, shuffleBytes: Long)

  final case class Summary(byMetric: Map[String, Totals], byLayer: Map[String, Totals],
                           counters: Map[String, Double]) {
    def spanWallS: Double = byMetric.values.map(_.wallS).sum
  }
}
