package sparse

// Decoder telemetry: decode invocations and overrun reads (a read past
// the end of the stored Values/ColIndex streams, the visible footprint
// of a misalignment cascade triggered by corrupted counters or mask
// bits). Counts are accumulated in locals inside the decode loops and
// published with a single atomic Add per decode — never per element.
//
// A bounded re-decode (Checkpoints.Redecode, from a checkpoint to the
// point where the decoder is back in its pristine state) counts as one
// decode, and it reports the overrun reads a full decode of the same
// faulted streams reports: outside the re-decoded stretch the decode is
// the pristine one, which overruns nowhere.
//
// Metric names:
//
//	sparse.csr.decodes          CSR decodes
//	sparse.csr.overrun_reads    entry reads past the end of Values/ColIndex
//	sparse.bitmask.decodes      BitMask decodes
//	sparse.bitmask.overrun_reads value reads past the end of Values
//	sparse.e24.decodes          E24 decodes (a dirty 2:4 trial layer
//	                            and a CompactInto each count one)
//	sparse.e24.overrun_reads    entry reads past the end of Values/Meta
import "repro/internal/telemetry"

var met = struct {
	csrDecodes, csrOverruns         *telemetry.Counter
	bitmaskDecodes, bitmaskOverruns *telemetry.Counter
	e24Decodes, e24Overruns         *telemetry.Counter
}{
	csrDecodes:      telemetry.Default().Counter("sparse.csr.decodes"),
	csrOverruns:     telemetry.Default().Counter("sparse.csr.overrun_reads"),
	bitmaskDecodes:  telemetry.Default().Counter("sparse.bitmask.decodes"),
	bitmaskOverruns: telemetry.Default().Counter("sparse.bitmask.overrun_reads"),
	e24Decodes:      telemetry.Default().Counter("sparse.e24.decodes"),
	e24Overruns:     telemetry.Default().Counter("sparse.e24.overrun_reads"),
}
