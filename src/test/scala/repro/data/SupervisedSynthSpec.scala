package repro.data

import org.scalatest.funsuite.AnyFunSuite

class SupervisedSynthSpec extends AnyFunSuite {

  private val small = SupervisedSynth.DSM2
  private lazy val smallPairs = SupervisedSynth.pairs(small)

  test("profiles cover DSM1..DSM5 with Table 3 sizes") {
    assert(SupervisedSynth.all.map(_.name) == (1 to 5).map(i => s"DSM$i"))
    assert(SupervisedSynth.DSM1.totalPairs == 9575 && SupervisedSynth.DSM1.dups == 1028)
    assert(SupervisedSynth.DSM2.totalPairs == 539 && SupervisedSynth.DSM2.dups == 132)
    assert(SupervisedSynth.DSM3.totalPairs == 12363 && SupervisedSynth.DSM3.dups == 2220)
    assert(SupervisedSynth.DSM4.totalPairs == 28707 && SupervisedSynth.DSM4.dups == 5347)
    assert(SupervisedSynth.DSM5.totalPairs == 10242 && SupervisedSynth.DSM5.dups == 962)
  }

  test("attribute counts per Table 3") {
    assert(SupervisedSynth.all.map(_.attrs) == Seq(3, 8, 4, 4, 5))
  }

  test("60/20/20 split arithmetic") {
    SupervisedSynth.all.foreach { p =>
      assert(p.trainN + p.validN + p.testN == p.totalPairs, p.name)
      assert(math.abs(p.testN - 0.2 * p.totalPairs) <= 2.0, p.name)
    }
  }

  test("pairs has totalPairs rows with exact split sizes") {
    assert(smallPairs.all.length == small.totalPairs)
    assert(smallPairs.all.map(_.pairId).distinct.length == small.totalPairs)
    assert(smallPairs.train.length == small.trainN)
    assert(smallPairs.valid.length == small.validN)
    assert(smallPairs.test.length == small.testN)
  }

  test("exactly dups positive pairs") {
    assert(smallPairs.all.count(_.label == 1) == small.dups)
  }

  test("every split contains both classes") {
    val splits = Seq("train" -> smallPairs.train, "valid" -> smallPairs.valid, "test" -> smallPairs.test)
    for ((s, rows) <- splits; l <- Seq(0, 1))
      assert(rows.count(_.label == l) > 0, s"split=$s label=$l")
  }

  test("pair generation is deterministic") {
    val a = SupervisedSynth.renderPair(small, 5L)
    val b = SupervisedSynth.renderPair(small, 5L)
    assert(a == b)
  }

  test("positive pairs share most canonical tokens") {
    val (s1, s2, label) = SupervisedSynth.renderPair(SupervisedSynth.DSM3, 3L)
    assert(label == 1)
    val t1 = s1.split(" ").map(Lexicon.canonical).toSet
    val t2 = s2.split(" ").map(Lexicon.canonical).toSet
    assert(t1.intersect(t2).size.toDouble / t1.union(t2).size > 0.5)
  }

  test("hard negatives overlap but differ") {
    val (s1, s2, label) = SupervisedSynth.renderPair(small, small.dups + 3L)
    assert(label == 0)
    assert(s1 != s2)
  }

  test("negative pair sentences are never identical to positives' rendering") {
    val sameText = smallPairs.all.count(r => r.label == 0 && r.sent1 == r.sent2)
    assert(sameText <= small.totalPairs / 50, s"$sameText identical negatives")
  }

  test("split assignment is a deterministic shuffle (not prefix by pairId)") {
    val trainIds = smallPairs.train.map(_.pairId).toSet
    // if the shuffle works, train must contain both low and high pair ids
    assert(trainIds.exists(_ < small.totalPairs / 4))
    assert(trainIds.exists(_ > 3L * small.totalPairs / 4))
  }
}
