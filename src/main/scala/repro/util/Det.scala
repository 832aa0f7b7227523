package repro.util

/** Deterministic hashing primitives shared by every substrate.
  *
  * All randomness in the reproduction (synthetic data, simulated model
  * weights, per-entity noise) is derived from splitmix64 over structured
  * seeds, so every generator is a pure function of its arguments and the
  * same dataset / embedding is produced on every run and every executor.
  */
object Det {

  /** splitmix64 finalizer — high-quality 64-bit mix. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Combine an arbitrary seed chain into one 64-bit seed. */
  def seed(parts: Long*): Long = parts.foldLeft(0x51ab5f0e8ca1d2b3L)((a, p) => mix(a ^ p))

  def seedStr(s: String, parts: Long*): Long = seed((parts :+ strHash(s)): _*)

  /** 64-bit string hash (FNV-1a widened then mixed). */
  def strHash(s: String): Long = {
    var h = 0xcbf29ce484222325L
    var i = 0
    while (i < s.length) { h ^= s.charAt(i).toLong; h *= 0x100000001b3L; i += 1 }
    mix(h)
  }

  /** Uniform double in [0, 1) from a seed. */
  def uniform(s: Long): Double = ((mix(s) >>> 11).toDouble) / (1L << 53).toDouble

  /** Uniform int in [0, n) from a seed. */
  def nextInt(s: Long, n: Int): Int = {
    require(n > 0, s"nextInt bound must be positive, got $n")
    ((mix(s) >>> 1) % n).toInt
  }

  private val Sqrt3 = math.sqrt(3.0).toFloat

  /** Fast deterministic random vector: components uniform in [-√3, √3]
    * (unit variance), one splitmix round per component. Used for token /
    * n-gram embeddings where Box-Muller would dominate vectorization cost.
    */
  def uniformVec(s: Long, dim: Int): Array[Float] = {
    val v = new Array[Float](dim)
    var z = mix(s)
    var i = 0
    while (i < dim) {
      z = mix(z)
      v(i) = (((z >>> 11).toDouble / (1L << 53).toDouble) * 2.0 - 1.0).toFloat * Sqrt3
      i += 1
    }
    v
  }

  /** L2 norm of a float vector. */
  def norm(v: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < v.length) { s += v(i).toDouble * v(i); i += 1 }
    math.sqrt(s)
  }

  /** Normalize in place to unit L2 norm (no-op on the zero vector). */
  def normalize(v: Array[Float]): Array[Float] = {
    val n = norm(v)
    if (n > 1e-12) { var i = 0; while (i < v.length) { v(i) = (v(i) / n).toFloat; i += 1 } }
    v
  }

  /** Euclidean distance between two equal-length vectors. */
  def l2(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i).toDouble - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }
}
