package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** What this JVM's block manager holds of broadcast values. It sits in
  * Spark's package because the block manager is private to Spark; under a
  * local master the driver and the executors share it.
  */
object BroadcastProbe {

  /** Whether a live broadcast's value equals `value`. Each value read is
    * drained, which releases its read lock.
    */
  def holds(value: Any): Boolean = {
    val bm = SparkEnv.get.blockManager
    bm.getMatchingBlockIds {
      case BroadcastBlockId(_, field) => field.isEmpty
      case _                          => false
    }.exists(id => bm.getLocalValues(id).exists(_.data.toList.contains(value)))
  }
}
