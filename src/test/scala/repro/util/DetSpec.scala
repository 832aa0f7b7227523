package repro.util

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Prop.forAll
import repro.PropSupport

class DetSpec extends AnyFunSuite with PropSupport {

  test("mix is deterministic") {
    assert(Det.mix(42L) == Det.mix(42L))
  }

  test("mix spreads nearby inputs") {
    val outs = (0L until 1000L).map(Det.mix).toSet
    assert(outs.size == 1000)
  }

  test("seed combines parts order-sensitively") {
    assert(Det.seed(1L, 2L) != Det.seed(2L, 1L))
  }

  test("seed of no parts is stable") {
    assert(Det.seed() == Det.seed())
  }

  test("seedStr incorporates the string") {
    assert(Det.seedStr("a", 1L) != Det.seedStr("b", 1L))
  }

  test("strHash distinguishes close strings") {
    assert(Det.strHash("token") != Det.strHash("token_1"))
    assert(Det.strHash("") != Det.strHash(" "))
  }

  test("uniform lies in [0,1)") {
    checkProp(forAll { (s: Long) => val u = Det.uniform(s); u >= 0.0 && u < 1.0 })
  }

  test("uniform is roughly uniform") {
    val n = 20000
    val mean = (0 until n).map(i => Det.uniform(i.toLong)).sum / n
    assert(math.abs(mean - 0.5) < 0.02, s"mean $mean")
  }

  test("nextInt bounds") {
    checkProp(forAll { (s: Long) => val x = Det.nextInt(s, 7); x >= 0 && x < 7 })
  }

  test("nextInt rejects non-positive bound") {
    intercept[IllegalArgumentException](Det.nextInt(1L, 0))
  }

  test("uniformVec has unit variance components") {
    val v = Det.uniformVec(123L, 5000)
    val mean = v.map(_.toDouble).sum / v.length
    val varr = v.map(x => (x - mean) * (x - mean)).sum / v.length
    assert(math.abs(mean) < 0.05)
    assert(math.abs(varr - 1.0) < 0.1, s"var $varr")
  }

  test("uniformVec deterministic in seed and dim") {
    assert(Det.uniformVec(9L, 16).toSeq == Det.uniformVec(9L, 16).toSeq)
    assert(Det.uniformVec(9L, 16).toSeq != Det.uniformVec(10L, 16).toSeq)
  }

  test("norm of unit axis vector") {
    assert(math.abs(Det.norm(Array(0f, 3f, 4f)) - 5.0) < 1e-9)
  }

  test("normalize yields unit norm") {
    val v = Det.normalize(Det.uniformVec(77L, 64))
    assert(math.abs(Det.norm(v) - 1.0) < 1e-5)
  }

  test("normalize leaves zero vector untouched") {
    val v = Det.normalize(new Array[Float](4))
    assert(v.forall(_ == 0.0f))
  }

  test("l2 of identical vectors is zero") {
    val v = Det.uniformVec(3L, 32)
    assert(Det.l2(v, v) == 0.0)
  }

  test("l2 symmetry") {
    val a = Det.uniformVec(1L, 16); val b = Det.uniformVec(2L, 16)
    assert(math.abs(Det.l2(a, b) - Det.l2(b, a)) < 1e-12)
  }

  test("l2 triangle inequality") {
    val a = Det.uniformVec(1L, 16); val b = Det.uniformVec(2L, 16); val c = Det.uniformVec(3L, 16)
    assert(Det.l2(a, c) <= Det.l2(a, b) + Det.l2(b, c) + 1e-9)
  }

  test("l2 rejects dim mismatch") {
    intercept[IllegalArgumentException](Det.l2(new Array[Float](3), new Array[Float](4)))
  }
}
