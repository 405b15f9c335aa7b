package main

// Example runs the whole program on the deterministic simulator; its
// output is the same on every run.
func Example() {
	main()
	// Output:
	// tree built: 8 subscribers, 8 FUSE-guarded content links
	//
	// publishing event #1:
	//     node 59 <- launch
	//     node 35 <- launch
	//     node  3 <- launch
	//     node 51 <- launch
	//     node 43 <- launch
	//     node 27 <- launch
	//     node 11 <- launch
	//     node 19 <- launch
	//
	// crashing subscriber 19 (an interior tree node)...
	// publishing event #2 after repair:
	//     node 59 <- recovered
	//     node 35 <- recovered
	//     node  3 <- recovered
	//     node 51 <- recovered
	//     node 43 <- recovered
	//     node 11 <- recovered
	//     node 27 <- recovered
	//
	// all 7 surviving subscribers received both events; tree self-repaired via FUSE.
}
