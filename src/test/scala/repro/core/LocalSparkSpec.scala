package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.util.Det

class LocalSparkSpec extends SparkSpec with PropSupport {

  test("fanOut equals rows.map(f), in order, for every input size") {
    val many = 4 * spark.sparkContext.defaultParallelism
    // empty, one row, 2-300 rows, and more rows than the most slices
    val size = Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 4 -> Gen.choose(2, 300),
      2 -> Gen.choose(many + 1, many + 400))
    val rows = for (n <- size; seed <- Gen.choose(0L, Long.MaxValue)) yield Array.tabulate(n)(i => Det.seed(seed, i.toLong))
    val f: Long => (Long, String) = x => (Det.mix(x), java.lang.Long.toHexString(x))
    checkProp(Prop.forAll(rows) { xs =>
      LocalSpark.fanOut(spark.sparkContext, xs)(f).sameElements(xs.map(f))
    }, "fanOut vs map")
  }

  test("querySlices is about four per core, at most one per row, at least one") {
    val sc = spark.sparkContext
    assert(LocalSpark.querySlices(sc, 0) == 1)
    assert(LocalSpark.querySlices(sc, 1) == 1)
    assert(LocalSpark.querySlices(sc, 10_000) == 4 * sc.defaultParallelism)
  }
}
