include Phoenix_util.Json
