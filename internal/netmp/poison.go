//go:build mpdash_poison

package netmp

// Built with -tags mpdash_poison, every block ReleaseSegBuf gets back is
// overwritten first, so a block written or checked after its release
// reaches the client as a corrupt body that verification counts.
func init() { poisonSegBufs = true }
