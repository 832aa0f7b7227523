package repro.embed

import scala.collection.mutable.ArrayBuffer

/** Schema-agnostic tokenizer shared by every model and baseline.
  *
  * Splits on anything that is not a letter, digit or `_` (the Lexicon's
  * variant marker is part of the token, as a subword would be) and
  * lower-cases. Pure and allocation-light: used inside Spark map tasks.
  */
object Tokenizer {

  def tokenize(s: String): Array[String] = {
    val out = new ArrayBuffer[String](16)
    val sb  = new StringBuilder
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (Character.isLetterOrDigit(c) || c == '_') sb += Character.toLowerCase(c)
      else if (sb.nonEmpty) { out += sb.result(); sb.clear() }
      i += 1
    }
    if (sb.nonEmpty) out += sb.result()
    out.toArray
  }

  /** Character 3-grams of a token padded with `<`/`>`, as FastText; the
    * padded token itself when no 3-gram fits.
    */
  def charNgrams(token: String): Array[String] = {
    val padded = "<" + token + ">"
    if (padded.length < 3) Array(padded)
    else Array.tabulate(padded.length - 2)(i => padded.substring(i, i + 3))
  }
}
