package main

// Example runs the program and pins its stdout: the simulator is
// deterministic, so any change in these lines is a change in behaviour.
func Example() {
	main()
	// Output:
	// closed nesting with partial rollback:
	//   carrier A: sold out -> partial rollback, trying carrier B
	//   booked: hotel seats 3->2, carrier B seats 5->4
	// retry/orElse composition:
	//   consumer woke on mailbox B and received 42
}
