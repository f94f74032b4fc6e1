package main

// Example runs the program and pins its stdout: the simulator is
// deterministic, so any change in these lines is a change in behaviour.
func Example() {
	main()
	// Output:
	// quickstart: 1000 transfers on 4 cores in 3564805 simulated cycles
	// total balance: 32000 (expected 32000) — invariant holds
	// commits: 1000, aborts: 166
	// hardware acceleration: 0 filtered read barriers, 1000 mark-counter validations, 988 read-log appends elided
	// cycle breakdown: rdbar 95.7% wrbar 3.6% app 0.4% commit 0.2% validate 0.0% tls 0.0%
}
