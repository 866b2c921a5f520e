package qcache

// oneShard shrinks c to a single shard retaining entries answers, so the
// eviction tests see a small bound and one global eviction order.
func oneShard(c *Cache, entries int) *Cache {
	c.shards, c.perShard = c.shards[:1], entries
	return c
}
