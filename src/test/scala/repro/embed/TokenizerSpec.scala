package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Prop.forAll
import repro.PropSupport

class TokenizerSpec extends AnyFunSuite with PropSupport {

  test("splits on whitespace and punctuation") {
    assert(Tokenizer.tokenize("foo bar,baz.qux").toSeq == Seq("foo", "bar", "baz", "qux"))
  }

  test("lowercases") {
    assert(Tokenizer.tokenize("FooBAR").toSeq == Seq("foobar"))
  }

  test("keeps underscores inside tokens (variant markers)") {
    assert(Tokenizer.tokenize("vala_1 beta").toSeq == Seq("vala_1", "beta"))
  }

  test("keeps digits") {
    assert(Tokenizer.tokenize("a1 22b").toSeq == Seq("a1", "22b"))
  }

  test("empty and blank strings tokenize to nothing") {
    assert(Tokenizer.tokenize("").isEmpty)
    assert(Tokenizer.tokenize("  \t , . ").isEmpty)
  }

  test("never produces empty tokens") {
    checkProp(forAll { (s: String) => Tokenizer.tokenize(s).forall(_.nonEmpty) })
  }

  test("tokens contain only letters, digits, underscore") {
    checkProp(forAll { (s: String) =>
      Tokenizer.tokenize(s).forall(_.forall(c => Character.isLetterOrDigit(c) || c == '_'))
    })
  }

  test("idempotent on already-joined tokens") {
    checkProp(forAll { (s: String) =>
      val t1 = Tokenizer.tokenize(s).toSeq
      Tokenizer.tokenize(t1.mkString(" ")).toSeq == t1
    })
  }

  test("charNgrams of short token is the padded token") {
    assert(Tokenizer.charNgrams("a").toSeq == Seq("<a>"))
    assert(Tokenizer.charNgrams("").toSeq == Seq("<>"))
  }

  test("charNgrams covers the padded string") {
    val grams = Tokenizer.charNgrams("abcd").toSeq
    assert(grams == Seq("<ab", "abc", "bcd", "cd>"))
  }

  test("charNgrams never empty") {
    checkProp(forAll { (s: String) =>
      val t = s.filter(Character.isLetterOrDigit)
      Tokenizer.charNgrams(t).nonEmpty
    })
  }

  test("typo-ed tokens share most 3-grams") {
    val a = Tokenizer.charNgrams("resolution").toSet
    val b = Tokenizer.charNgrams("resolutoin").toSet // swapped chars
    val jac = a.intersect(b).size.toDouble / a.union(b).size
    assert(jac > 0.35, s"jaccard $jac") // word-level identity would be 0
  }
}
