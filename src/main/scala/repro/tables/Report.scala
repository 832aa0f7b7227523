package repro.tables

import repro.core.Tab

/** One printed table: its title and its rows, header first. */
final case class Printed(title: String, rows: Seq[Seq[String]]) {
  def print(): Unit = println(s"\n== $title ==\n${Tab.fmt(rows)}")
}

/** What a table producer returns: the tables it prints and, in each
  * producer's own result type, the typed values its bench asserts on.
  */
abstract class Report(tables: Printed*) {
  def print(): Unit = tables.foreach(_.print())
}
