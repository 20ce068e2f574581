//go:build mpdash_poison

package netmp

// Built with -tags mpdash_poison, every block ReleaseSegBuf gets back,
// and every window, reader and connection tracker that goes back to its
// pool, is overwritten first: a block written or checked after its
// release reaches the client as a corrupt body that verification counts,
// and a reader or a queued head used after its release as a corrupt body
// or a parse error.
func init() { poisonPools = true }
