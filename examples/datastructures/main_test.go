package main

// Example runs the program and pins its stdout: the simulator is
// deterministic, so any change in these lines is a change in behaviour.
func Example() {
	main()
	// Output:
	// sorted-list set, 4 cores x 150 ops, 20% updates:
	//   lock         135041 cycles  (commits  600, aborts   0)
	//   stm          256083 cycles  (commits  600, aborts  88)
	//   hastm        148547 cycles  (commits  600, aborts  64)
	//   hytm         129137 cycles  (commits  600, aborts  74)
	//
	// relative to the coarse lock:
	//   stm      1.90x
	//   hastm    1.10x
	//   hytm     0.96x
}
