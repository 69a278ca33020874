package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Named{}, lib.Box[int]{V: 1}.Get())
}
