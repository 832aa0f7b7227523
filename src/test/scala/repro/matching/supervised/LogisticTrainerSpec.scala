package repro.matching.supervised

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Det

class LogisticTrainerSpec extends AnyFunSuite {

  private def blob(n: Int, dim: Int, center: Float, seed: Long): Array[Array[Float]] =
    Array.tabulate(n) { i =>
      val v = Det.uniformVec(Det.seed(seed, i.toLong), dim)
      v.indices.foreach(j => v(j) = v(j) * 0.3f + center)
      v
    }

  test("learns a linearly separable problem") {
    val pos = blob(100, 8, 1.0f, 1L)
    val neg = blob(100, 8, -1.0f, 2L)
    val x = pos ++ neg
    val y = Array.fill(100)(1) ++ Array.fill(100)(0)
    val m = LogisticTrainer.train(x, y, x, y, epochs = 5, seed = 7L)
    assert(LogisticTrainer.f1Of(x.map(m.predict).toSeq, y.toSeq) > 0.97)
  }

  test("training is deterministic in the seed") {
    val pos = blob(50, 6, 0.5f, 1L); val neg = blob(50, 6, -0.5f, 2L)
    val x = pos ++ neg; val y = Array.fill(50)(1) ++ Array.fill(50)(0)
    val m1 = LogisticTrainer.train(x, y, x, y, epochs = 12, seed = 5L)
    val m2 = LogisticTrainer.train(x, y, x, y, epochs = 12, seed = 5L)
    assert(m1.weights.toSeq == m2.weights.toSeq && m1.bias == m2.bias)
  }

  test("different seeds give different weights") {
    val pos = blob(50, 6, 0.5f, 1L); val neg = blob(50, 6, -0.5f, 2L)
    val x = pos ++ neg; val y = Array.fill(50)(1) ++ Array.fill(50)(0)
    val m1 = LogisticTrainer.train(x, y, x, y, epochs = 12, seed = 5L)
    val m2 = LogisticTrainer.train(x, y, x, y, epochs = 12, seed = 6L)
    assert(m1.weights.toSeq != m2.weights.toSeq)
  }

  test("ignores pure-noise dimensions (the BERT noise subspace)") {
    // informative dims [0,4), noise dims [4,24) with 10x amplitude
    def mk(n: Int, label: Int, seed: Long) = Array.tabulate(n) { i =>
      val v = new Array[Float](24)
      (0 until 4).foreach(j => v(j) = (if (label == 1) 0.5f else -0.5f) +
        0.2f * Det.uniformVec(Det.seed(seed, i.toLong, j.toLong), 1)(0))
      (4 until 24).foreach(j => v(j) = 5f * Det.uniformVec(Det.seed(seed, i.toLong, j.toLong), 1)(0))
      v
    }
    val x = mk(150, 1, 1L) ++ mk(150, 0, 2L)
    val y = Array.fill(150)(1) ++ Array.fill(150)(0)
    val m = LogisticTrainer.train(x, y, x, y, epochs = 10, seed = 7L)
    val f1 = LogisticTrainer.f1Of(x.map(m.predict).toSeq, y.toSeq)
    assert(f1 > 0.9, s"f1 $f1")
    val sigW = m.weights.take(4).map(math.abs(_)).max
    val noiseW = m.weights.drop(4).map(math.abs(_)).max
    assert(sigW > noiseW, "informative dims should dominate the learned weights")
  }

  test("validation selects a well-performing epoch") {
    val pos = blob(80, 6, 0.4f, 1L); val neg = blob(80, 6, -0.4f, 2L)
    val x = pos ++ neg; val y = Array.fill(80)(1) ++ Array.fill(80)(0)
    val m = LogisticTrainer.train(x, y, x, y, epochs = 8, seed = 7L)
    assert(m.chosenEpoch >= 0 && m.chosenEpoch < 8)
    assert(m.valF1 > 0.9)
  }

  test("empty training set rejected") {
    intercept[IllegalArgumentException](
      LogisticTrainer.train(Array.empty, Array.empty, Array.empty, Array.empty, epochs = 12, seed = 7L))
  }

  test("f1Of edge cases") {
    assert(LogisticTrainer.f1Of(Seq(0, 0), Seq(0, 0)) == 0.0) // no positives anywhere
    assert(LogisticTrainer.f1Of(Seq(1, 1), Seq(1, 1)) == 1.0)
    assert(LogisticTrainer.f1Of(Seq(1, 0), Seq(0, 1)) == 0.0)
  }

  test("margin is linear in features") {
    val m = TrainedModel(Array(1f, -2f), 0.5f, 0, 0.0)
    assert(math.abs(m.margin(Array(2f, 1f)) - 0.5) < 1e-6)
    assert(m.predict(Array(2f, 1f)) == 1)
    assert(m.predict(Array(0f, 1f)) == 0)
  }

  test("PairFeatures layout: |diff| then product") {
    val f = PairFeatures.features(Array(1f, 2f), Array(3f, -1f))
    assert(f.toSeq == Seq(2f, 3f, 3f, -2f))
  }

  test("PairFeatures rejects dim mismatch") {
    intercept[IllegalArgumentException](PairFeatures.features(Array(1f), Array(1f, 2f)))
  }

  test("PairFeatures of identical vectors has zero diff block") {
    val v = Det.uniformVec(1L, 6)
    val f = PairFeatures.features(v, v)
    assert(f.take(6).forall(_ == 0f))
  }
}
