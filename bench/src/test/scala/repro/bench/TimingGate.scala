package repro.bench

import org.scalatest.Assertions._

/** A timing assertion that prints the ratio it checks, so that every run
  * shows how far the gate is from failing.
  */
object TimingGate {

  /** Asserts `slow > fast` and prints `slow / fast`, which the gate needs above 1. */
  def above(claim: String, slow: Double, fast: Double): Unit = {
    val msg = f"$claim: ratio ${slow / fast}%.3f (gate: > 1)"
    println(msg)
    assert(slow > fast, msg)
  }
}
