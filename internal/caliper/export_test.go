package caliper

// Handles on the codec for the external test package, which builds real
// profiles through the suite and campaign layers (they import caliper).
var (
	DecodeProfile = decodeProfile
	AppendProfile = appendProfile
)
