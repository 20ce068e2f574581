package stats

// FNV-1a (64-bit), as allocation-free steps: start from FNVOffset, fold
// values in with FNVMix or FNVString. Shard maps, trace IDs and the perf
// checksum all hash through these, so one key lands on one shard
// everywhere.
const (
	FNVOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// FNVMix folds one value (a byte, or a whole word) into h.
func FNVMix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// FNVString folds the bytes of s into h.
func FNVString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = FNVMix(h, uint64(s[i]))
	}
	return h
}
