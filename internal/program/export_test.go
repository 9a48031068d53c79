package program

// Test hooks for the external test package, which checks the calibration
// walk against the benchmark images of package workload (an import package
// program itself cannot make).
var (
	CheckCalibrationRounds = checkCalibrationRounds
	CheckSiteCountBudgets  = checkSiteCountBudgets
)
