package unusedfix

import (
	"fmt"
	"log/slog"
	"os"
	"strings"
)

type status int

func (s status) String() string { return "status" }

func Good(name string) string {
	msg := fmt.Sprintf("hello %s", name)
	fmt.Fprintln(os.Stdout, msg) // effectful: fine in statement position
	if strings.Contains(name, "x") {
		return strings.ToLower(name)
	}
	status(0).String()             // same-package method: outside the cross-package rule
	slog.Default().Error("logged") // an Error method with no result to discard
	return msg
}
