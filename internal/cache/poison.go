//go:build mpdash_poison

package cache

// Built with -tags mpdash_poison, every page the pool gets back is
// overwritten first, so a body read after its last Release reaches the
// client as a corrupt body that verification counts.
func init() { poisonPages = true }
