package main

import (
	"flag"
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/metrics"
)

func main() {
	o := lib.Options{Set: 1}
	flag.IntVar(&o.Addressed, "addressed", 0, "")
	var reg metrics.Registry
	reg.Counter("fixture_documented_total", "")
	reg.Counter("fixture_undocumented_total", "")
	fmt.Println(lib.Named{}, lib.Box[int]{V: 1}.Get(), lib.New(o))
}
