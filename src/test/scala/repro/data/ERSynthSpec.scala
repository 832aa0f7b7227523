package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class ERSynthSpec extends SparkSpec {

  private val p = DatasetProfiles("D5").scaled(0.02)

  test("profiles cover D1..D10 with Table 2(a) sizes") {
    assert(DatasetProfiles.all.map(_.name) == (1 to 10).map(i => s"D$i"))
    val d9 = DatasetProfiles("D9")
    assert(d9.v1 == 2516 && d9.v2 == 61353 && d9.dups == 2308)
    val d2 = DatasetProfiles("D2")
    assert(d2.v1 == 1076 && d2.v2 == 1076 && d2.dups == 1076, "D2 is 1-1")
    val d10 = DatasetProfiles("D10")
    assert(d10.a1 == 4 && d10.a2 == 7)
  }

  test("every profile has dups <= min(v1, v2)") {
    DatasetProfiles.all.foreach(p => assert(p.dups <= math.min(p.v1, p.v2), p.name))
  }

  test("scaled keeps the invariant and shrinks sizes") {
    DatasetProfiles.all.foreach { p =>
      val s = p.scaled(0.1)
      assert(s.dups <= math.min(s.v1, s.v2), p.name)
      assert(s.v1 <= p.v1 && s.v2 <= p.v2, p.name)
    }
  }

  test("unknown profile name throws") {
    intercept[NoSuchElementException](DatasetProfiles("D11"))
  }

  test("source sizes match the profile") {
    assert(ERSynth.source(spark, p, 1).count() == p.v1)
    assert(ERSynth.source(spark, p, 2).count() == p.v2)
  }

  test("source ids are distinct and dense") {
    val ids = ERSynth.source(spark, p, 1).select("id").collect().map(_.getLong(0)).sorted
    assert(ids.toSeq == (0L until p.v1).toSeq)
  }

  test("attrs arity matches the profile per side") {
    val r1 = ERSynth.source(spark, p, 1).select("attrs").head().getSeq[String](0)
    val r2 = ERSynth.source(spark, p, 2).select("attrs").head().getSeq[String](0)
    assert(r1.size == p.a1 && r2.size == p.a2)
  }

  test("generation is deterministic") {
    val a = ERSynth.source(spark, p, 2).select("sentence").collect().map(_.getString(0)).toSeq
    val b = ERSynth.source(spark, p, 2).select("sentence").collect().map(_.getString(0)).toSeq
    assert(a == b)
  }

  test("renderEntity is pure and equals the DataFrame content") {
    val viaDf = ERSynth.source(spark, p, 1).filter(col("id") === 3L).head()
    val direct = ERSynth.renderEntity(p, 1, 3L)
    assert(viaDf.getString(2) == direct.sentence)
  }

  test("sentence concatenates non-empty attrs") {
    val e = ERSynth.renderEntity(p, 2, 5L)
    assert(e.sentence == e.attrs.filter(_.nonEmpty).mkString(" "))
  }

  test("ground truth has dups rows within both id ranges") {
    val gt = ERSynth.groundTruth(spark, p).collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(gt.length == p.dups)
    assert(gt.forall { case (a, b) => a < p.v1 && b < p.v2 })
  }

  test("matched pairs share most core meanings (textually similar)") {
    val pEasy = DatasetProfiles("D4").scaled(0.02)
    val e1 = ERSynth.renderEntity(pEasy, 1, 0L)
    val e2 = ERSynth.renderEntity(pEasy, 2, 0L)
    val t1 = e1.sentence.split(" ").map(Lexicon.canonical).toSet
    val t2 = e2.sentence.split(" ").map(Lexicon.canonical).toSet
    val jac = t1.intersect(t2).size.toDouble / t1.union(t2).size
    assert(jac > 0.5, s"jaccard $jac")
  }

  test("unmatched entities are textually distinct") {
    val e1 = ERSynth.renderEntity(p, 1, p.dups + 1L)
    val e2 = ERSynth.renderEntity(p, 2, p.dups + 1L)
    assert(e1.sentence != e2.sentence)
  }

  test("typo produces a nearby but different word") {
    val w = "valamo"
    val t = ERSynth.typo(w, 123L)
    assert(t != w && math.abs(t.length - w.length) <= 1)
  }

  test("typo on empty string is a no-op") {
    assert(ERSynth.typo("", 1L) == "")
  }

  test("missRate produces empty attributes on noisy profiles") {
    val noisy = DatasetProfiles("D10").scaled(0.01)
    val rows = ERSynth.source(spark, noisy, 1).select("attrs").collect()
    val emptyFrac = rows.flatMap(_.getSeq[String](0)).count(_.isEmpty).toDouble /
      rows.map(_.getSeq[String](0).size).sum
    assert(emptyFrac > 0.15, s"empty attr fraction $emptyFrac")
  }

  test("misplaceRate rotates attribute values (schema broken, sentence intact)") {
    val mis = DatasetProfiles("D1").copy(missRate = 0.0, misplaceRate = 1.0).scaled(0.2)
    val non = mis.copy(misplaceRate = 0.0)
    val rMis = ERSynth.renderEntity(mis, 2, 3L)
    val rNon = ERSynth.renderEntity(non, 2, 3L)
    assert(rMis.attrs != rNon.attrs)
    assert(rMis.attrs.sorted == rNon.attrs.sorted, "rotation permutes values")
  }

  test("stats computes the Table 2(a) row") {
    val (v1, v2, a1, a2, d, avgLen) = ERSynth.stats(p)
    assert(v1 == p.v1 && v2 == p.v2 && a1 == p.a1 && a2 == p.a2 && d == p.dups)
    assert(avgLen > 5 && avgLen < 400, s"avg sentence length $avgLen")
    import spark.implicits._
    val sparkLen = Seq(1, 2).map(ERSynth.source(spark, p, _).agg(sum(length(col("sentence")))).as[Long].head()).sum
    assert(avgLen == sparkLen.toDouble / (p.v1 + p.v2), "Spark SQL length() agrees")
  }

  test("oracle: entity counts and average sentence length agree with DuckDB") {
    val s1 = ERSynth.source(spark, p, 1).select(col("id"), col("sentence"))
    val agg = s1.agg(
      count(lit(1)).cast("long").as("n"),
      round(avg(length(col("sentence"))), 3).as("avg_len"))
    Oracle.assertEquivalent(agg,
      "SELECT count(*) AS n, round(avg(length(sentence)), 3) AS avg_len FROM s1",
      "s1" -> s1)
  }

  test("oracle: ground-truth join count agrees with DuckDB") {
    val s1 = ERSynth.source(spark, p, 1).select(col("id").as("id1"))
    val gt = ERSynth.groundTruth(spark, p)
    val joined = gt.join(s1, Seq("id1")).agg(count(lit(1)).cast("long").as("n"))
    Oracle.assertEquivalent(joined,
      "SELECT count(*) AS n FROM gt JOIN s1 USING (id1)",
      "gt" -> gt, "s1" -> s1)
  }
}
