package repro.baselines

import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.core.Pipeline
import repro.data.{CleanProfile, DatasetProfiles, ERSynth, EntityRow}

class ZeroERSpec extends SparkSpec with PropSupport {

  private def run(p: CleanProfile, budgetSecs: Double): Option[ZeroER.Result] = {
    val src = Pipeline.sources(p)
    ZeroER.run(src.e1, src.e2, src.gt, budgetSecs = budgetSecs)
  }

  test("levSim basics") {
    assert(ZeroER.levSim("abc", "abc") == 1.0)
    assert(ZeroER.levSim("", "") == 1.0)
    assert(ZeroER.levSim("abc", "") == 0.0)
    assert(math.abs(ZeroER.levSim("kitten", "sitting") - (1.0 - 3.0 / 7)) < 1e-9)
  }

  test("levSim is symmetric") {
    assert(ZeroER.levSim("abcd", "axcd") == ZeroER.levSim("axcd", "abcd"))
  }

  test("levSim caps long strings") {
    val a = "x" * 2000; val b = "x" * 1999 + "y"
    val s = ZeroER.levSim(a, b)
    assert(s >= 0.0 && s <= 1.0)
  }

  test("jaccard basics") {
    assert(ZeroER.jaccard(Set("a"), Set("a")) == 1.0)
    assert(ZeroER.jaccard(Set.empty, Set.empty) == 1.0)
    assert(ZeroER.jaccard(Set("a"), Set("b")) == 0.0)
    assert(ZeroER.jaccard(Set("a", "b"), Set("b", "c")) == 1.0 / 3)
  }

  test("emPosteriors separates two clear clusters") {
    val feats = Array.tabulate(200) { i =>
      if (i < 40) Array(0.9 + 0.02 * (i % 5), 0.85) else Array(0.1 + 0.02 * (i % 5), 0.15)
    }
    val post = ZeroER.emPosteriors(feats, () => ())
    assert(post.take(40).forall(_ > 0.5), "high-similarity rows in the match component")
    assert(post.drop(40).forall(_ < 0.5), "low-similarity rows in the unmatch component")
  }

  test("emPosteriors handles empty input") {
    assert(ZeroER.emPosteriors(Array.empty, () => ()).isEmpty)
  }

  test("overlap blocking finds duplicate pairs as candidates") {
    val src = Pipeline.sources(DatasetProfiles("D4").scaled(0.03))
    val cands = ZeroER.overlapBlocking(src.e1, src.e2).toSet
    val rec = src.gt.count(cands.contains).toDouble / src.gt.size
    assert(rec > 0.7, s"overlap blocking recall $rec")
  }

  test("end-to-end ZeroER works on clean bibliographic data (D4-like)") {
    val res = run(DatasetProfiles("D4").scaled(0.03), budgetSecs = 120)
    assert(res.isDefined, "must terminate on a small clean dataset")
    assert(res.get.f1 > 0.5, s"F1 ${res.get.f1}")
    assert(res.get.prepSecs > 0 && res.get.matchSecs > 0)
  }

  test("misplaced values break schema-based ZeroER (the paper's D1 result)") {
    val pGood = DatasetProfiles("D4").scaled(0.03)
    // 0.5 maximizes the chance that exactly one side rotated its attributes
    val pBad  = pGood.copy(misplaceRate = 0.5)
    def f1Of(p: CleanProfile): Double = run(p, budgetSecs = 120).map(_.f1).getOrElse(0.0)
    val good = f1Of(pGood)
    val bad  = f1Of(pBad)
    assert(bad < good * 0.75, s"misplaced values must hurt ZeroER: good=$good bad=$bad")
  }

  test("budget exhaustion returns None") {
    val res = run(DatasetProfiles("D3").scaled(0.1), budgetSecs = 0.001) // long product descriptions
    assert(res.isEmpty)
  }

  test("the DataFrame form returns exactly what the array form returns (D4 x0.05)") {
    val p = DatasetProfiles("D4").scaled(0.05)
    val frame = ZeroER.run(ERSynth.source(spark, p, 1), ERSynth.source(spark, p, 2), ERSynth.groundTruth(spark, p), 3600)
    val arrays = run(p, budgetSecs = 3600)
    assert(frame.isDefined && arrays.isDefined)
    assert(frame.map(r => (r.precision, r.recall, r.f1)) == arrays.map(r => (r.precision, r.recall, r.f1)))
  }

  private def referenceBlocking(e1: Array[EntityRow], e2: Array[EntityRow], cap: Int): Set[(Long, Long)] = {
    import spark.implicits._
    ReferenceZeroER.overlapBlocking(e1.toSeq.toDF(), e2.toSeq.toDF(), cap)
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
  }

  // D4: clean titles; D1: missing and misplaced values; D3: long text with frequent tokens
  for ((ds, scale) <- Seq(("D4", 0.03), ("D1", 0.05), ("D3", 0.02))) {
    test(s"overlap blocking equals the Spark SQL reference on $ds x$scale, also at cap 3 and on permuted inputs") {
      val src = Pipeline.sources(DatasetProfiles(ds).scaled(scale))
      val (e1, e2) = (src.e1, src.e2)
      val shuffle = new scala.util.Random(7)
      for (cap <- Seq(500, 3)) {
        val blocked = ZeroER.overlapBlocking(e1, e2, cap)
        assert(blocked.nonEmpty)
        assert(blocked.toSet == referenceBlocking(e1, e2, cap), s"cap $cap")
        assert(blocked.distinct.length == blocked.length, "a pair is repeated")
        assert(blocked.groupBy(_._1).forall(_._2.length <= cap), s"more than $cap rights for a left entity")
        assert(blocked.map(_._1).toSeq == blocked.map(_._1).sorted.toSeq, "left ids out of order")
        assert(ZeroER.overlapBlocking(e1.reverse, e2.reverse, cap).sameElements(blocked), "reversed inputs")
        assert(ZeroER.overlapBlocking(shuffle.shuffle(e1.toSeq).toArray, shuffle.shuffle(e2.toSeq).toArray, cap)
          .sameElements(blocked), "shuffled inputs")
      }
    }
  }

  test("emPosteriors equals the reference bit for bit on random matrices") {
    // values from a small grid (duplicate rows, ties at the 99% cut) or uniform;
    // constant columns hit the 1e-4 variance floor
    val gen = for {
      n <- Gen.frequency(1 -> Gen.const(1), 6 -> Gen.choose(2, 300))
      d <- Gen.frequency(1 -> Gen.const(1), 4 -> Gen.choose(2, 8))
      constCols <- Gen.listOfN(d, Gen.frequency(1 -> true, 3 -> false))
      grid <- Gen.oneOf(true, false)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val rnd = new scala.util.Random(seed)
      Array.tabulate(n, d) { (_, j) =>
        if (constCols(j)) 0.5
        else if (grid) rnd.nextInt(5) / 4.0
        else rnd.nextDouble()
      }
    }
    checkProp(Prop.forAll(gen) { feats =>
      val got = ZeroER.emPosteriors(feats, () => ()).map(java.lang.Double.doubleToRawLongBits)
      val want = ReferenceZeroER.emPosteriors(feats).map(java.lang.Double.doubleToRawLongBits)
      got.sameElements(want)
    }, "emPosteriors vs ReferenceZeroER")
  }
}
