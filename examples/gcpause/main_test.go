package main

// Example runs the program and pins its stdout: the simulator is
// deterministic, so any change in these lines is a change in behaviour.
func Example() {
	main()
	// Output:
	// GC pause: transaction suspended, logs visible to the collector:
	//   read set:  2 records
	//   write set: 1 records
	//   undo log:  addr 0x50080 old value 102 (collector could relocate this object)
	//
	// after resume: objs[2] = 202 (expected 202)
	// commits: 1, aborts: 0  — the pause did NOT abort the transaction
	// validations: 1 full / 0 fast — the lost mark bits forced one software validation
}
