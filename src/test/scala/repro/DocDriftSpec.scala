package repro

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import scala.util.matching.Regex
import org.scalatest.funsuite.AnyFunSuite

/** The docs name only what the program has: every inline-backticked
  * identifier in DESIGN.md, README.md and EXPERIMENTS.md resolves to a name
  * in the code of `src/main`, `jobs/`, `bench/` or build.sbt (comments do
  * not count), apart from the names on [[DocDriftSpec.External]].
  */
class DocDriftSpec extends AnyFunSuite {
  import DocDriftSpec._

  for (doc <- Docs) test(s"every backticked identifier in $doc names the code") {
    val text = new String(Files.readAllBytes(Paths.get(doc)), "UTF-8")
    val missing = references(text).filterNot(ref => External(ref) || ref.split('.').forall(codeNames))
    assert(missing.isEmpty, s"$doc names what the code does not have: ${missing.mkString(", ")}")
  }

  test("a misspelt name, a name found only in a comment, and code in a fence are told apart") {
    val names = namesIn("/** `ghostName` */ object Real { def call(x: Int) = \"ENV_NAME\" } // otherName")
    val refs = references("`Real.call(x)`, `Real.cal`, `ENV_NAME`, `ghostName`, `otherName`, `a + b`\n" +
      "```\n`Real.fenced`\n```\n")
    assert(refs == Seq("Real.call", "Real.cal", "ENV_NAME", "ghostName", "otherName"))
    assert(refs.filterNot(_.split('.').forall(names)) == Seq("Real.cal", "ghostName", "otherName"))
  }
}

object DocDriftSpec {

  val Docs = Seq("DESIGN.md", "README.md", "EXPERIMENTS.md")

  /** Where the program's names are declared or read. */
  val CodeRoots = Seq("src/main", "jobs", "bench", "build.sbt")

  /** Names the docs cite from outside the program. */
  val External = Set(
    "IndexFlatL2", // FAISS's exact index, which the paper uses
  )

  private val Fence = "(?ms)^```.*?^```".r
  private val Span = "`([^`\n]+)`".r

  /** A dotted name, optionally followed by type arguments and argument
    * lists; the name is what must resolve. A span of any other shape (a
    * command, a formula, a path) is not a reference.
    */
  private val Reference = """([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\[.*\])?(?:\(.*\))*""".r
  private val StringOrComment = "(?s)\"(?:\\\\.|[^\"\\\\\n])*\"|/\\*.*?\\*/|//[^\n]*".r
  private val Word = """[A-Za-z_]\w*""".r

  /** The distinct names of `markdown`'s inline code spans, outside fenced blocks, in order. */
  def references(markdown: String): Seq[String] =
    Span.findAllMatchIn(Fence.replaceAllIn(markdown, "")).map(_.group(1)).collect { case Reference(name) => name }
      .toSeq.distinct

  /** The words of `source` outside its comments. String literals count:
    * the environment variables the program reads are named in them.
    */
  def namesIn(source: String): Set[String] = {
    val code = StringOrComment.replaceAllIn(source,
      m => if (m.matched.startsWith("\"")) Regex.quoteReplacement(m.matched) else " ")
    Word.findAllIn(code).toSet
  }

  lazy val codeNames: Set[String] = CodeRoots.map(Paths.get(_)).flatMap { root =>
    val files = Files.walk(root)
    try files.iterator.asScala.filter(p => Files.isRegularFile(p) && isSource(p)).toList
    finally files.close()
  }.flatMap(p => namesIn(new String(Files.readAllBytes(p), "UTF-8"))).toSet

  private def isSource(p: Path): Boolean = p.toString.endsWith(".scala") || p.toString.endsWith(".sbt")
}
