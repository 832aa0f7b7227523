package repro.core

/** Minimal fixed-width table printer for bench/job output. */
object Tab {

  def fmt(rows: Seq[Seq[String]]): String = {
    if (rows.isEmpty) return ""
    val widths = rows.map(_.map(_.length)).transpose.map(_.max)
    rows.map(r => r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  "))
      .mkString("\n")
  }

  def f(x: Double, digits: Int = 3): String = s"%.${digits}f".format(x)
}
