package repro.data

import repro.util.Det

/** Synthetic vocabulary substrate — the "world knowledge" a pre-trained
  * corpus would provide.
  *
  * A *meaning* is an integer id; each meaning has a base surface form (a
  * pronounceable pseudo-word) plus up to [[Variants]] surface variants,
  * marked with an `_x` suffix so that canonicalization is a pure string
  * function. Real language models differ in how reliably they map distinct
  * surface forms of the same meaning to nearby vectors; the simulated
  * models consult [[canonical]] with a per-model probability (`knowP`).
  */
object Lexicon {

  /** Number of non-base surface variants per meaning. */
  val Variants = 3

  private val Consonants = "bcdfghklmnprstvz"
  private val Vowels     = "aeiou"

  /** Deterministic pronounceable pseudo-word for a seed (2–4 syllables). */
  def word(s: Long): String = {
    val syls = 2 + Det.nextInt(Det.seed(s, 11L), 3)
    val sb = new StringBuilder
    var i = 0
    while (i < syls) {
      sb += Consonants.charAt(Det.nextInt(Det.seed(s, 20L + 2 * i), Consonants.length))
      sb += Vowels.charAt(Det.nextInt(Det.seed(s, 21L + 2 * i), Vowels.length))
      i += 1
    }
    sb.result()
  }

  /** Base surface form of meaning `m` in vocabulary `vocabTag`. */
  def base(vocabTag: String, m: Long): String = word(Det.seedStr(vocabTag, m))

  /** Surface variant `j` (0 = base) of meaning `m`. */
  def surface(vocabTag: String, m: Long, j: Int): String = {
    require(j >= 0 && j <= Variants, s"variant $j out of range")
    val b = base(vocabTag, m)
    if (j == 0) b else s"${b}_$j"
  }

  /** Canonical (base) form of any surface token: strips the variant marker.
    * Typos that corrupt the marker defeat canonicalization — by design.
    */
  def canonical(token: String): String = {
    val i = token.indexOf('_')
    if (i < 0) token else token.substring(0, i)
  }

  /** A fixed-size pool word (names, suburbs, states, …) for Febrl data. */
  def poolWord(poolTag: String, poolSize: Int, s: Long): String =
    word(Det.seedStr(poolTag, Det.nextInt(s, poolSize).toLong))
}
