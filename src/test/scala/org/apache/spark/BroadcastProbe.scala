package org.apache.spark

import org.apache.spark.storage.{BlockId, BroadcastBlockId}

/** What this JVM's block manager holds of broadcast values. It sits in
  * Spark's package because the block manager is private to Spark; under a
  * local master the driver and the executors share it.
  */
object BroadcastProbe {

  /** Whether a live broadcast's value equals `value`. Each value read is
    * drained, which releases its read lock. A block that is removed
    * between the listing and its read (a destroyed broadcast is removed
    * asynchronously, and so are the blocks Spark's cleaner drops) is not
    * held.
    */
  def holds(value: Any): Boolean = {
    val bm = SparkEnv.get.blockManager
    bm.getMatchingBlockIds {
      case BroadcastBlockId(_, field) => field.isEmpty
      case _                          => false
    }.exists { id =>
      try bm.getLocalValues(id).exists(_.data.toList.contains(value))
      catch { case e: SparkException if removed(e, id) => false }
    }
  }

  /** Whether `e` is the block manager's report that block `id` does not exist. */
  private def removed(e: SparkException, id: BlockId): Boolean =
    e.getCondition == "_LEGACY_ERROR_TEMP_3031" && e.getMessageParameters.get("blockId") == id.toString
}
