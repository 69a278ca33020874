package lib

// Options has one field per case of the options rule.
type Options struct {
	// Set is a composite-literal key in main.
	Set int
	// Addressed is set through &o.Addressed in main.
	Addressed int
	// TestSet is set by a test file only.
	TestSet int
	// Defaulted is set by New's defaulting only.
	Defaulted int
	// KeptOption is set by nothing and is keep-listed.
	KeptOption int
}

// New reads every option, so each one has a user.
func New(o Options) int {
	if o.Defaulted == 0 {
		o.Defaulted = 1
	}
	return o.Set + o.Addressed + o.TestSet + o.Defaulted + o.KeptOption
}
