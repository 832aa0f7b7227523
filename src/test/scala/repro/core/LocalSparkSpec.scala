package repro.core

import org.apache.spark.{BroadcastProbe, SparkException}
import org.scalacheck.{Gen, Prop}
import org.scalatest.concurrent.Eventually
import org.scalatest.time.{Seconds, Span}
import repro.{PropSupport, SparkSpec}
import repro.util.Det

class LocalSparkSpec extends SparkSpec with PropSupport with Eventually {

  override implicit val patienceConfig: PatienceConfig = PatienceConfig(timeout = Span(10, Seconds))

  test("fanOut equals rows.map(f), in order, for every input size") {
    val many = 4 * spark.sparkContext.defaultParallelism
    // empty, one row, 2-300 rows, and more rows than the most slices
    val size = Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 4 -> Gen.choose(2, 300),
      2 -> Gen.choose(many + 1, many + 400))
    val rows = for (n <- size; seed <- Gen.choose(0L, Long.MaxValue)) yield Array.tabulate(n)(i => Det.seed(seed, i.toLong))
    val f: Long => (Long, String) = x => (Det.mix(x), java.lang.Long.toHexString(x))
    checkProp(Prop.forAll(rows) { xs =>
      LocalSpark.fanOut(xs)(f).sameElements(xs.map(f))
    }, "fanOut vs map")
  }

  test("the shared-value fanOut equals the per-slice map, in input order, for every input size") {
    val many = 4 * spark.sparkContext.defaultParallelism
    val g: (Long, Long) => String = (s, x) => java.lang.Long.toHexString(Det.mix(s ^ x))
    for (n <- Seq(0, 1, 2, many + 1, many + 37)) {
      val xs = Array.tabulate(n)(i => Det.seed(n.toLong, i.toLong))
      val out = LocalSpark.fanOut(42L, xs)((s, slice) => slice.map(g(s, _)))
      assert(out.length == LocalSpark.querySlices(n), s"one result per slice, n=$n")
      assert(out.flatten.sameElements(xs.map(g(42L, _))), s"n=$n")
    }
  }

  test("the shared value's broadcast is removed after a normal return and after a task throws") {
    val rows = Array.range(0, 16)
    val returns = s"returns-${System.nanoTime()}"
    val heldInTasks = LocalSpark.fanOut(returns, rows)((s, _) => BroadcastProbe.holds(s))
    assert(heldInTasks.forall(identity), "the probe sees the broadcast while the job runs")
    eventually(assert(!BroadcastProbe.holds(returns)))

    val throws = s"throws-${System.nanoTime()}"
    val e = intercept[SparkException](LocalSpark.fanOut(throws, rows) { (s, _) =>
      if (BroadcastProbe.holds(s)) throw new IllegalStateException("task fails") else 0
    })
    assert(e.getMessage.contains("task fails"))
    eventually(assert(!BroadcastProbe.holds(throws)))
  }

  test("querySlices is about four per core, at most one per row, at least one") {
    assert(LocalSpark.querySlices(0) == 1)
    assert(LocalSpark.querySlices(1) == 1)
    assert(LocalSpark.querySlices(10_000) == 4 * spark.sparkContext.defaultParallelism)
  }

  test("fan-outs run on the running session, which the lookup does not replace") {
    val rows = Array.tabulate(50)(i => Det.seed(7L, i.toLong))
    val f: Long => Long = Det.mix
    assert(LocalSpark.fanOut(rows)(f).sameElements(rows.map(f)), "before the lookup")
    assert(LocalSpark.session eq spark)
    assert(LocalSpark.fanOut(rows)(f).sameElements(rows.map(f)), "after the lookup")
  }
}
